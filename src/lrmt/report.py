"""Deterministic SVG rendering and artifact export for analysis results.

Every byte written here is a pure function of the inputs: no timestamps, no
dict-ordering hazards, so identical runs produce identical files.
"""

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import xray
from .bleu import dump_translations_tsv, write_bleu_csv


@dataclass
class StageAnalysis:
    stage: int                           # index of the stage in its plan
    label: str
    mass: "xray.MassActivationMatrix"
    bleu: object = None                  # BleuReport, optional
    top_changed: list = field(default_factory=list)   # [{"neuron": i, "delta": d}]


def _fmt(x):
    return ("%.6f" % float(x)).rstrip("0").rstrip(".")


def _svg_header(width, height):
    return ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (width, height, width, height),
            '<rect width="%d" height="%d" fill="white"/>' % (width, height)]


def render_knowledge_plot(stages, path=None):
    """Per-stage panels of signed mass per neuron for a list of StageAnalysis:
    positive part in blue, negative part in red, one mark per neuron."""
    if not stages:
        raise ValueError("no stages to plot")
    width = {s.mass.width for s in stages}
    if len(width) != 1:
        raise ValueError("stages have mismatched analysis widths")
    n = width.pop()
    panel_w, panel_h, margin = 640, 160, 30
    height = (panel_h + margin) * len(stages) + margin
    parts = _svg_header(panel_w + 2 * margin, height)
    all_abs = max(float(np.abs(s.mass.signed_mass).max()) for s in stages)
    scale = all_abs if all_abs > 0 else 1.0
    for idx, stage in enumerate(stages):
        top = margin + idx * (panel_h + margin)
        mid = top + panel_h / 2
        parts.append('<text x="%d" y="%s" font-size="12" font-family="monospace">%s</text>'
                     % (margin, _fmt(top - 6), _escape(stage.label)))
        parts.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#888"/>'
                     % (margin, _fmt(mid), margin + panel_w, _fmt(mid)))
        signed = stage.mass.signed_mass
        for k in range(n):
            x = margin + panel_w * (k + 0.5) / n
            v = float(signed[k]) / scale * (panel_h / 2)
            pos, neg = max(v, 0.0), min(v, 0.0)
            if pos > 0:
                parts.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="blue"/>'
                             % (_fmt(x), _fmt(mid), _fmt(x), _fmt(mid - pos)))
            if neg < 0:
                parts.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="red"/>'
                             % (_fmt(x), _fmt(mid), _fmt(x), _fmt(mid - neg)))
            if pos == 0 and neg == 0:
                parts.append('<circle cx="%s" cy="%s" r="0.8" fill="#888"/>'
                             % (_fmt(x), _fmt(mid)))
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg


def render_pos_distribution(dist, path=None):
    """POS-density bars plus a labelled scatter of the top-k tokens."""
    width, height, margin = 700, 320, 40
    parts = _svg_header(width, height)
    parts.append('<text x="%d" y="20" font-size="13" font-family="monospace">'
                 'neuron %d</text>' % (margin, dist.neuron))
    tags = sorted(dist.pos_density)
    bar_area_w, bar_h_max = width - 2 * margin, 100
    if tags:
        bw = bar_area_w / len(tags)
        for i, tag in enumerate(tags):
            h = dist.pos_density[tag] * bar_h_max
            x = margin + i * bw
            parts.append('<rect x="%s" y="%s" width="%s" height="%s" fill="steelblue"/>'
                         % (_fmt(x + 2), _fmt(140 - h), _fmt(bw - 4), _fmt(h)))
            parts.append('<text x="%s" y="155" font-size="10" '
                         'font-family="monospace">%s</text>' % (_fmt(x + 2), _escape(tag)))
    base_y = 260
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#888"/>'
                 % (margin, base_y, width - margin, base_y))
    top = dist.top_k
    for i, (tok, tag, _mean, norm) in enumerate(top):
        x = margin + (width - 2 * margin) * (i + 0.5) / max(len(top), 1)
        y = base_y - norm * 60
        color = "blue" if norm >= 0 else "red"
        parts.append('<circle cx="%s" cy="%s" r="3" fill="%s"/>'
                     % (_fmt(x), _fmt(y), color))
        parts.append('<text x="%s" y="%s" font-size="10" font-family="monospace">'
                     '%s/%s</text>' % (_fmt(x + 5), _fmt(y - 4), _escape(tok), _escape(tag)))
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg


def _escape(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def export_analysis(stages, out_dir):
    """Write the analysis artifacts of a list of StageAnalysis plus a
    report.json index with a CRC32 per file.  bleu.csv and the translations
    files come only from stages with a BleuReport, numbered by plan stage.
    No stages yield an empty index and no partial files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def _register(name):
        data = (out / name).read_bytes()
        artifacts.append({"path": name, "crc32": zlib.crc32(data)})

    if stages:
        records = [xray.analysis_export(s.label, s.mass, top_changed=s.top_changed)
                   for s in stages]
        (out / "analysis.json").write_text(
            json.dumps(records, indent=2, sort_keys=True), encoding="utf-8")
        _register("analysis.json")

        scored = [s for s in stages if s.bleu is not None]
        if scored:
            write_bleu_csv(out / "bleu.csv", [(s.stage, s.label, s.bleu) for s in scored])
            _register("bleu.csv")
        for stage in scored:
            name = "translations_%02d_%s.tsv" % (stage.stage, stage.label)
            dump_translations_tsv(stage.bleu, out / name)
            _register(name)

        render_knowledge_plot(stages, out / "knowledge.svg")
        _register("knowledge.svg")

    (out / "report.json").write_text(
        json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True),
        encoding="utf-8")
    return artifacts
