"""Canonical pretty-printer for workflow scripts.

Renders a :class:`~repro.core.schema.Script` back to the paper's concrete
syntax.  ``parse(format_script(s))`` reproduces ``s`` exactly (templates are
kept, instantiations are rendered as the expanded declarations they produced),
which the property-based tests exercise; the repository service uses the
formatter for its ``inspect`` operation.
"""

from __future__ import annotations

from typing import List

from ..core.errors import SchemaError
from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    GuardKind,
    Implementation,
    InputSetBinding,
    ObjectDecl,
    OutputBinding,
    OutputKind,
    Script,
    Source,
    TaskClass,
    TaskDecl,
    TaskTemplate,
)

_KIND_TEXT = {
    OutputKind.OUTCOME: "outcome",
    OutputKind.ABORT: "abort outcome",
    OutputKind.REPEAT: "repeat outcome",
    OutputKind.MARK: "mark",
}


class _Writer:
    def __init__(self, indent: str = "    ") -> None:
        self.lines: List[str] = []
        self.depth = 0
        self.indent = indent

    def line(self, text: str = "") -> None:
        self.lines.append(f"{self.indent * self.depth}{text}" if text else "")

    def block(self, header: str):
        writer = self

        class _Block:
            def __enter__(self_inner):
                writer.line(header + " {")
                writer.depth += 1
                return writer

            def __exit__(self_inner, exc_type, exc, tb):
                writer.depth -= 1
                writer.line("}")
                return False

        return _Block()

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _format_source(source: Source, notification: bool) -> str:
    if notification:
        base = f"task {source.task_name}"
    else:
        base = f"{source.object_name} of task {source.task_name}"
    if source.guard_kind is GuardKind.OUTPUT:
        return f"{base} if output {source.guard_name}"
    if source.guard_kind is GuardKind.INPUT:
        return f"{base} if input {source.guard_name}"
    return base


def _write_source_list(w: _Writer, header: str, sources, notification: bool) -> None:
    with w.block(header):
        for index, source in enumerate(sources):
            suffix = ";" if index < len(sources) - 1 else ""
            w.line(_format_source(source, notification) + suffix)


def _write_object_decls(w: _Writer, header: str, objects) -> None:
    with w.block(header):
        for index, obj in enumerate(objects):
            suffix = ";" if index < len(objects) - 1 else ""
            w.line(f"{obj.name} of class {obj.class_name}{suffix}")


def _write_taskclass(w: _Writer, taskclass: TaskClass) -> None:
    with w.block(f"taskclass {taskclass.name}"):
        if taskclass.input_sets:
            with w.block("inputs"):
                for spec in taskclass.input_sets:
                    _write_object_decls(w, f"input {spec.name}", spec.objects)
        if taskclass.outputs:
            with w.block("outputs"):
                for out in taskclass.outputs:
                    _write_object_decls(
                        w, f"{_KIND_TEXT[out.kind]} {out.name}", out.objects
                    )
    w.line(";")


def _quoted(text: str, keyword: str, path: str) -> str:
    """``"text"`` — refused where it would not read back: the language has no
    escapes, a string ends at the first ``"`` or ``”``, may not hold a newline
    and is trimmed (docs/LANGUAGE.md §1)."""
    if text != text.strip() or '"' in text or "”" in text or "\n" in text:
        raise SchemaError(
            f"implementation property {keyword!r}: no string literal spells {text!r} "
            f"(a quote, a newline or an outer blank)",
            path,
        )
    return f'"{text}"'


def _write_implementation(w: _Writer, implementation: Implementation, path: str) -> None:
    if not implementation.properties:
        return
    props = ", ".join(
        f"{_quoted(k, k, path)} is {_quoted(v, k, path)}" for k, v in implementation.properties
    )
    w.line(f"implementation {{ {props} }};")


def _write_input_sets(w: _Writer, input_sets) -> None:
    if not input_sets:
        return
    with w.block("inputs"):
        for binding in input_sets:
            with w.block(f"input {binding.name}"):
                for obj in binding.objects:
                    _write_source_list(
                        w, f"inputobject {obj.name} from", obj.sources, False
                    )
                    w.line(";")
                for notif in binding.notifications:
                    _write_source_list(w, "notification from", notif.sources, True)
                    w.line(";")
    w.line(";")


def _write_outputs_mapping(w: _Writer, script: Script, decl: CompoundTaskDecl) -> None:
    if not decl.outputs:
        return
    taskclass = script.taskclasses.get(decl.taskclass_name)
    with w.block("outputs"):
        for binding in decl.outputs:
            kind = OutputKind.OUTCOME
            if taskclass is not None:
                spec = taskclass.output(binding.name)
                if spec is not None:
                    kind = spec.kind
            with w.block(f"{_KIND_TEXT[kind]} {binding.name}"):
                for obj in binding.objects:
                    _write_source_list(
                        w, f"outputobject {obj.name} from", obj.sources, False
                    )
                    w.line(";")
                for notif in binding.notifications:
                    _write_source_list(w, "notification from", notif.sources, True)
                    w.line(";")


def _write_decl(w: _Writer, script: Script, decl: AnyTaskDecl, path: str) -> None:
    if isinstance(decl, CompoundTaskDecl):
        with w.block(f"compoundtask {decl.name} of taskclass {decl.taskclass_name}"):
            _write_implementation(w, decl.implementation, path)
            _write_input_sets(w, decl.input_sets)
            for child in decl.tasks:
                _write_decl(w, script, child, f"{path}/{child.name}")
            _write_outputs_mapping(w, script, decl)
        w.line(";")
    else:
        with w.block(f"task {decl.name} of taskclass {decl.taskclass_name}"):
            _write_implementation(w, decl.implementation, path)
            _write_input_sets(w, decl.input_sets)
        w.line(";")


def _write_template(w: _Writer, script: Script, template: TaskTemplate) -> None:
    body = template.body
    keyword = "compoundtask" if isinstance(body, CompoundTaskDecl) else "task"
    with w.block(
        f"tasktemplate {keyword} {template.name} of taskclass {body.taskclass_name}"
    ):
        with w.block("parameters"):
            for index, param in enumerate(template.parameters):
                suffix = ";" if index < len(template.parameters) - 1 else ""
                w.line(param + suffix)
        w.line(";")
        _write_implementation(w, body.implementation, template.name)
        _write_input_sets(w, body.input_sets)
        if isinstance(body, CompoundTaskDecl):
            for child in body.tasks:
                _write_decl(w, script, child, f"{template.name}/{child.name}")
            _write_outputs_mapping(w, script, body)
    w.line(";")


def format_script(script: Script) -> str:
    """Render a script in canonical concrete syntax; :class:`SchemaError` for
    an implementation property no string literal can spell."""
    w = _Writer()
    for name, parent in script.classes.items():
        if parent is None:
            w.line(f"class {name};")
        else:
            w.line(f"class {name} extends {parent};")
    if script.classes:
        w.line()
    for taskclass in script.taskclasses.values():
        _write_taskclass(w, taskclass)
        w.line()
    for template in script.templates.values():
        _write_template(w, script, template)
        w.line()
    for decl in script.tasks.values():
        _write_decl(w, script, decl, decl.name)
        w.line()
    return w.text()
