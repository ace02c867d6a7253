"""Generated code: one way to write it, one to compile it, one cache.

Three layers run code generated per shape: the batch engine's pipelines
(:mod:`repro.relational.pipeline`), the XML integration kernels
(:mod:`repro.xmlgen.kernel`) and the transfer charge
(:mod:`repro.relational.connection`).  Each writes one ``def`` into a
:class:`Source` and keeps the compiled function in :data:`CODE`, through
:func:`compiled`, under its own key: a pipeline under its source text,
a kernel or a charge under a structural key (building the source costs
more than looking it up).

Every name the code reads that is not one of its own locals is
``_<hint><n>``, numbered per source: a constant bound when the code is
compiled (:meth:`Source.const`), or an argument passed on every call
(:meth:`Source.arg`), which keeps the code the same for other values.
No generated local has such a name, so none can shadow one.
"""

from repro.relational.cache import BoundedCache

#: Every generated function by ``(generator, key)``; code only.
CODE = BoundedCache("generated_code", max_entries=1536)


class Source:
    """The lines of one generated ``def``, its constants (``consts``,
    bound at compile time) and its arguments (``args``, in parameter
    order, with the values of this use)."""

    def __init__(self):
        self.lines = []
        self.consts = {}
        self.args = {}
        self._names = {}

    def _name(self, hint):
        return f"_{hint}{len(self.consts) + len(self.args)}"

    def add(self, depth, line):
        self.lines.append("    " * depth + line)

    def const(self, value, hint):
        """A name bound to ``value`` when the code is compiled; one per
        object, never one per equal value (``0.0 == -0.0``)."""
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = self._name(hint)
            self.consts[name] = value
        return name

    def arg(self, value):
        """A parameter name for ``value``, passed on every call."""
        name = self._name("k")
        self.args[name] = value
        return name

    def text(self):
        return "\n".join(self.lines)

    def compile(self):
        return compile_source(self.text(), self.consts)


def compiled(key, build):
    """The function kept under ``key``, or ``build()``'s :class:`Source`
    compiled and kept."""
    code = CODE.get(key)
    if code is None:
        code = build().compile()
        CODE.store(key, code)
    return code


def compile_source(source, consts):
    """The function generated ``source`` (one ``def``) defines, with
    ``consts`` bound as closure variables and no builtins exposed."""
    name = source[4:source.index("(")]
    body = source.replace("\n", "\n    ")
    namespace = {"__builtins__": {}}
    exec(compile(  # noqa: S102 - generated source, no builtins
        f"def make({', '.join(consts)}):\n    {body}\n    return {name}",
        f"<generated {name}>", "exec"), namespace)
    return namespace.pop("make")(**consts)   # no make <-> globals cycle
