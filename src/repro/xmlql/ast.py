"""Abstract syntax for the XML-QL subset."""

from dataclasses import dataclass, field


@dataclass
class PatternElement:
    """One element in a ``where`` tree pattern.

    ``text_var`` binds the element's character content to a variable;
    ``text_literal`` requires the content to equal a constant; children
    are sub-patterns that must all match within the element.
    """

    tag: str
    children: list = field(default_factory=list)
    text_var: str = None
    text_literal: str = None

    def variables(self):
        """All variables bound anywhere in this pattern, in order."""
        out = []
        if self.text_var is not None:
            out.append(self.text_var)
        for child in self.children:
            out.extend(child.variables())
        return out


@dataclass(frozen=True)
class VarCondition:
    """A where-clause condition ``$var op literal``."""

    var: str
    op: str
    value: object


@dataclass
class ConstructNode:
    """One element of the construct template.  ``contents`` holds child
    :class:`ConstructNode` instances, variables (``("var", name)``; ``$name``
    in the source), and literal text (plain str); ``skolem`` is an explicit
    ``ID=Name($v, ...)`` as ``(name, variable names)``."""

    tag: str
    contents: list = field(default_factory=list)
    skolem: tuple = None

    def variables(self):
        """Every variable the element and its descendants use (displayed
        or in an ``ID=`` term)."""
        out = list(self.skolem[1]) if self.skolem else []
        for content in self.contents:
            if isinstance(content, ConstructNode):
                out.extend(content.variables())
            elif isinstance(content, tuple) and content[0] == "var":
                out.append(content[1])
        return out


@dataclass
class XmlQlQuery:
    """A parsed XML-QL query: pattern, conditions, construct template."""

    pattern: PatternElement
    conditions: list  # of VarCondition
    construct: ConstructNode
