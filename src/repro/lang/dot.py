"""Graphviz (DOT) export — the textual stand-in for the paper's graphical
programming environment.

Rendering conventions follow the paper's figures:

* dataflow dependencies are solid arcs, notifications dashed (Fig. 1);
* compound tasks are clusters, their constituents nested inside (Figs. 5-9);
* abort outcomes are labelled with a double border marker and marks with a
  dotted one, echoing Fig. 2's double-/dotted-border boxes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.graph import Arc, arcs
from ..core.schema import AnyTaskDecl, CompoundTaskDecl, OutputKind, Script


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


def _node_id(decl: AnyTaskDecl, path: str) -> str:
    """A compound's arcs start and end at its port node."""
    return _quote(f"{path}.<ports>" if isinstance(decl, CompoundTaskDecl) else path)


def _edge_lines(w: _DotWriter, drawn: List[Arc], ids: Dict[str, str]) -> None:
    for arc in drawn:
        producer_id = ids.get(arc.source.task_name)
        if producer_id is None:
            continue
        label = arc.source.object_name or ""
        guard = arc.source.guard_name
        if guard:
            label = f"{label}\\n[{guard}]" if label else f"[{guard}]"
        attrs = f'style={"dashed" if arc.notify else "solid"}'
        if label:
            attrs += f', label="{label}", fontsize=9'
        w.line(f"{producer_id} -> {ids[arc.consumer]} [{attrs}];")


def _emit_decl(w: _DotWriter, script: Script, decl: AnyTaskDecl, path: str) -> None:
    """Draw ``decl``; its input arcs are drawn by the enclosing compound."""
    taskclass = script.taskclasses.get(decl.taskclass_name)
    if isinstance(decl, CompoundTaskDecl):
        w.clusters += 1
        w.line(f"subgraph cluster_{w.clusters} {{")
        w.depth += 1
        w.line(f"label={_quote(decl.name)};")
        w.line("style=rounded;")
        ids = {decl.name: _node_id(decl, path)}
        w.line(f"{ids[decl.name]} [label=\"⟂\", shape=point];")
        for child in decl.tasks:
            ids[child.name] = _node_id(child, f"{path}/{child.name}")
        by_consumer: Dict[str, List[Arc]] = {}
        for arc in arcs(decl):
            by_consumer.setdefault(arc.consumer, []).append(arc)
        # each constituent's input arcs follow it; the output mapping's end at the port
        for child in decl.tasks:
            _emit_decl(w, script, child, f"{path}/{child.name}")
            _edge_lines(w, by_consumer.get(child.name, []), ids)
        _edge_lines(w, by_consumer.get(decl.name, []), ids)
        w.depth -= 1
        w.line("}")
    else:
        extras = ""
        if taskclass is not None:
            if taskclass.is_atomic:
                extras = ", peripheries=2"       # Fig. 2's double border
            elif taskclass.outputs_of_kind(OutputKind.MARK):
                extras = ", style=dotted"         # Fig. 9's dotted border
        w.line(f"{_quote(path)} [label={_quote(decl.name)}, shape=box{extras}];")


def to_dot(script: Script, task_name: Optional[str] = None) -> str:
    """Render one top-level task (default: the only one) as a DOT digraph."""
    if task_name is None:
        if not script.tasks:
            raise ValueError("script has no top-level task")
        if len(script.tasks) != 1:
            raise ValueError("script has several top-level tasks; name one")
        task_name = next(iter(script.tasks))
    if task_name not in script.tasks:
        raise ValueError(f"no top-level task {task_name!r}")
    w = _DotWriter()
    w.line(f"digraph {_quote(task_name)} {{")
    w.depth += 1
    w.line("rankdir=LR;")
    w.line("node [fontname=Helvetica];")
    _emit_decl(w, script, script.tasks[task_name], task_name)
    w.depth -= 1
    w.line("}")
    return w.text()
