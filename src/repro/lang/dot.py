"""Graphviz (DOT) export — the textual stand-in for the paper's graphical
programming environment.

Rendering conventions follow the paper's figures:

* dataflow dependencies are solid arcs, notifications dashed (Fig. 1);
* compound tasks are clusters, their constituents nested inside (Figs. 5-9);
* abort outcomes are labelled with a double border marker and marks with a
  dotted one, echoing Fig. 2's double-/dotted-border boxes.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    OutputKind,
    Script,
    Source,
    TaskDecl,
)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


class _DotWriter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0
        self.clusters = 0  # numbered in emission order: a str hash is salted per process

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _edge_lines(
    w: _DotWriter,
    consumer_id: str,
    sources,
    notification: bool,
    scope_ids,
) -> None:
    style = "dashed" if notification else "solid"
    for source in sources:
        producer_id = scope_ids.get(source.task_name)
        if producer_id is None:
            continue
        label = ""
        if source.object_name:
            label = source.object_name
        if source.guard_name:
            label = f"{label}\\n[{source.guard_name}]" if label else f"[{source.guard_name}]"
        attrs = f'style={style}'
        if label:
            attrs += f', label="{label}", fontsize=9'
        w.line(f"{producer_id} -> {consumer_id} [{attrs}];")


def _node_id(path: str) -> str:
    return _quote(path)


def _emit_decl(
    w: _DotWriter,
    script: Script,
    decl: AnyTaskDecl,
    path: str,
    parent_scope_ids: Optional[dict],
) -> None:
    taskclass = script.taskclasses.get(decl.taskclass_name)
    if isinstance(decl, CompoundTaskDecl):
        w.clusters += 1
        w.line(f"subgraph cluster_{w.clusters} {{")
        w.depth += 1
        w.line(f"label={_quote(decl.name)};")
        w.line("style=rounded;")
        port = f"{path}.<ports>"
        w.line(f"{_node_id(port)} [label=\"⟂\", shape=point];")
        inner_ids = {decl.name: _node_id(port)}
        for child in decl.tasks:
            child_path = f"{path}/{child.name}"
            inner_ids[child.name] = (
                _node_id(f"{child_path}.<ports>")
                if isinstance(child, CompoundTaskDecl)
                else _node_id(child_path)
            )
        for child in decl.tasks:
            _emit_decl(w, script, child, f"{path}/{child.name}", inner_ids)
        # compound output mapping edges terminate at the port node
        for binding in decl.outputs:
            spec = taskclass.output(binding.name) if taskclass else None
            for obj in binding.objects:
                _edge_lines(w, _node_id(port), obj.sources, False, inner_ids)
            for notif in binding.notifications:
                _edge_lines(w, _node_id(port), notif.sources, True, inner_ids)
        w.depth -= 1
        w.line("}")
    else:
        shape = "box"
        extras = ""
        if taskclass is not None:
            if taskclass.is_atomic:
                extras = ", peripheries=2"       # Fig. 2's double border
            elif taskclass.outputs_of_kind(OutputKind.MARK):
                extras = ", style=dotted"         # Fig. 9's dotted border
        w.line(f"{_node_id(path)} [label={_quote(decl.name)}, shape={shape}{extras}];")
    # input dependency edges (resolved in the enclosing scope)
    if parent_scope_ids is not None:
        consumer_id = (
            _node_id(f"{path}.<ports>")
            if isinstance(decl, CompoundTaskDecl)
            else _node_id(path)
        )
        for binding in decl.input_sets:
            for obj in binding.objects:
                _edge_lines(w, consumer_id, obj.sources, False, parent_scope_ids)
            for notif in binding.notifications:
                _edge_lines(w, consumer_id, notif.sources, True, parent_scope_ids)


def to_dot(script: Script, task_name: Optional[str] = None) -> str:
    """Render one top-level task (default: the only one) as a DOT digraph."""
    if task_name is None:
        if len(script.tasks) != 1:
            raise ValueError("script has several top-level tasks; name one")
        task_name = next(iter(script.tasks))
    decl = script.tasks[task_name]
    w = _DotWriter()
    w.line(f"digraph {_quote(task_name)} {{")
    w.depth += 1
    w.line("rankdir=LR;")
    w.line("node [fontname=Helvetica];")
    _emit_decl(w, script, decl, task_name, None)
    w.depth -= 1
    w.line("}")
    return w.text()
