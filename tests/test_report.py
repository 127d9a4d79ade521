"""SVG rendering determinism and the artifact index with checksums."""

import json
import zlib

import numpy as np
import pytest

from lrmt import xray
from lrmt.bleu import BleuReport
from lrmt.report import (StageAnalysis, export_analysis, render_knowledge_plot,
                         render_pos_distribution)
from lrmt.xray import (ActivationDataset, MassActivationMatrix, mass_matrices,
                       pos_token_distribution)


def _mass(seed=0, width=8):
    rng = np.random.default_rng(seed)
    acts = ActivationDataset(tokens=[["a", "b", "c"]], tags=[["NOUN", "VERB", "PUNCT"]],
                             matrix=rng.normal(size=(3, width)))
    return mass_matrices(acts)


def _bundle(n_stages=2):
    b = []
    for i in range(n_stages):
        rep = BleuReport(score=0.5 + 0.1 * i, precisions=[0.9, 0.7, 0.5, 0.3],
                         brevity_penalty=1.0, candidate_length=10,
                         reference_length=10,
                         samples=[("s", "r", "h")])
        b.append(StageAnalysis(stage=i, label="stage%d" % i, mass=_mass(seed=i), bleu=rep))
    return b


def test_knowledge_plot_is_byte_deterministic_and_marks_signs():
    b = _bundle()
    svg1 = render_knowledge_plot(b)
    svg2 = render_knowledge_plot(b)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert 'stroke="blue"' in svg1 and 'stroke="red"' in svg1
    assert "stage0" in svg1 and "stage1" in svg1


def test_knowledge_plot_rejects_empty_or_mismatched_bundle():
    with pytest.raises(ValueError):
        render_knowledge_plot([])
    b = [StageAnalysis(stage=0, label="a", mass=_mass(width=4)),
         StageAnalysis(stage=1, label="b", mass=_mass(width=6))]
    with pytest.raises(ValueError):
        render_knowledge_plot(b)


def test_pos_distribution_plot_labels_tokens():
    acts = ActivationDataset(tokens=[["cat", "runs"]], tags=[["NOUN", "VERB"]],
                             matrix=np.array([[1.0, 0.0], [-2.0, 0.0]]))
    dist = pos_token_distribution(acts, neuron=0, k=2)
    svg = render_pos_distribution(dist)
    assert "cat/NOUN" in svg and "runs/VERB" in svg
    assert svg == render_pos_distribution(dist)


def test_export_analysis_writes_indexed_artifacts(tmp_path):
    arts = export_analysis(_bundle(), tmp_path)
    index = json.loads((tmp_path / "report.json").read_text())
    assert index["artifacts"] == arts
    names = {a["path"] for a in arts}
    assert {"analysis.json", "bleu.csv", "knowledge.svg"} <= names
    for a in arts:
        data = (tmp_path / a["path"]).read_bytes()
        assert zlib.crc32(data) == a["crc32"]
    rows = (tmp_path / "bleu.csv").read_text().strip().splitlines()
    assert rows[0] == "stage,label,score,p1,p2,p3,p4,bp"
    assert len(rows) == 3
    records = json.loads((tmp_path / "analysis.json").read_text())
    assert [r["stage"] for r in records] == ["stage0", "stage1"]
    assert set(records[0]) >= {"width", "signed_mass", "magnitude_mass",
                               "max_mass", "hit_count", "knowledge"}


def test_export_analysis_empty_bundle_writes_only_empty_index(tmp_path):
    arts = export_analysis([], tmp_path)
    assert arts == []
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["report.json"]
    assert json.loads((tmp_path / "report.json").read_text()) == {"artifacts": []}


def test_export_is_byte_deterministic(tmp_path):
    export_analysis(_bundle(), tmp_path / "one")
    export_analysis(_bundle(), tmp_path / "two")
    for name in ("analysis.json", "bleu.csv", "knowledge.svg", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes()


def test_knowledge_plot_escapes_stage_labels():
    import xml.etree.ElementTree as ET

    b = [StageAnalysis(stage=0, label="de<fr & en", mass=_mass())]
    root = ET.fromstring(render_knowledge_plot(b))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["de<fr & en"]


def test_pos_distribution_plot_escapes_tags():
    import xml.etree.ElementTree as ET

    acts = ActivationDataset(tokens=[["a&b", "c"]], tags=[["<N>", "V&"]],
                             matrix=np.array([[1.0], [2.0]]))
    root = ET.fromstring(render_pos_distribution(pos_token_distribution(acts, neuron=0, k=2)))
    texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"<N>", "V&", "a&b/<N>", "c/V&"} <= texts
