"""The view tree drawn as text (``ViewTree.render``, ``repro tree``)."""


class TestViewTreeRender:
    def test_fig6_rendering(self, q1_tree):
        text = q1_tree.render()
        lines = text.splitlines()
        assert lines[0].startswith("S1 <supplier>")
        assert any("(*) S1.4 <part>" in line for line in lines)
        assert any("└─" in line for line in lines)
        assert "suppkey(1,1)" in text

    def test_render_without_args(self, q1_tree):
        text = q1_tree.render(show_args=False)
        assert "suppkey(1,1)" not in text
        assert "<supplier>" in text
