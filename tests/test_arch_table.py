"""Pins of each architecture's parameters, and the rule that the code reads
what an architecture is from one table instead of testing its name."""

import ast
import hashlib
from pathlib import Path

import pytest

from lrmt.model import Seq2SeqModel
from lrmt.text import ParallelCorpus, build_vocab

SRC = Path(__file__).resolve().parents[1] / "src" / "lrmt"

# arch -> ([(name, shape)] in named_parameters() order, encoder names, SHA-256
# of the seed-0 initial parameter bytes in that order); E=4, H=3, V=8, float32
PINS = {
    "lstm": (
        [("src_emb", (8, 4)), ("enc.W_i", (4, 12)), ("enc.W_h", (3, 12)), ("enc.b", (12,)),
         ("tgt_emb", (8, 4)), ("dec.W_i", (4, 12)), ("dec.W_h", (3, 12)), ("dec.b", (12,)),
         ("out.W", (3, 8)), ("out.b", (8,))],
        ["src_emb", "enc.W_i", "enc.W_h", "enc.b"],
        "e2536461b4827ccbdb59acdc7b6c8f992d483308a8555dbf029772d322b85162"),
    "gru": (
        [("src_emb", (8, 4)), ("enc.W_i", (4, 9)), ("enc.W_h", (3, 9)), ("enc.b", (9,)),
         ("tgt_emb", (8, 4)), ("dec.W_i", (7, 9)), ("dec.W_h", (3, 9)), ("dec.b", (9,)),
         ("out.W", (10, 8)), ("out.b", (8,))],
        ["src_emb", "enc.W_i", "enc.W_h", "enc.b"],
        "e0f2a218701ec2c3cb19f48f365d36b9f0882890c37c545563a9b46389f46a97"),
    "abgru": (
        [("src_emb", (8, 4)), ("enc_fwd.W_i", (4, 9)), ("enc_fwd.W_h", (3, 9)),
         ("enc_fwd.b", (9,)), ("enc_bwd.W_i", (4, 9)), ("enc_bwd.W_h", (3, 9)),
         ("enc_bwd.b", (9,)), ("enc_init.W", (6, 3)), ("enc_init.b", (3,)),
         ("tgt_emb", (8, 4)), ("attn_energy.W", (9, 3)), ("attn_energy.b", (3,)),
         ("attn_score.W", (3, 1)), ("dec.W_i", (10, 9)), ("dec.W_h", (3, 9)),
         ("dec.b", (9,)), ("out.W", (13, 8)), ("out.b", (8,))],
        ["src_emb", "enc_fwd.W_i", "enc_fwd.W_h", "enc_fwd.b", "enc_bwd.W_i",
         "enc_bwd.W_h", "enc_bwd.b", "enc_init.W", "enc_init.b"],
        "39d386bf1d396dfb9d271a88c564fee3150c030d9376c5222f27d4a368543be3"),
}


@pytest.mark.parametrize("arch", sorted(PINS))
def test_parameters_keep_their_names_shapes_order_and_initial_bytes(arch):
    vocab = build_vocab([ParallelCorpus([(list("abcd"), list("abcd"))])], side="source")
    model = Seq2SeqModel(arch, vocab, vocab, embed_size=4, hidden_size=3, dropout=0.0,
                         seed=0)
    layout, encoder, digest = PINS[arch]
    named = model.named_parameters()
    assert [(name, p.data.shape) for name, p in named.items()] == layout
    assert [p.name for p in model.encoder_parameters()] == encoder
    h = hashlib.sha256()
    for p in named.values():
        assert p.data.dtype.name == "float32"
        h.update(p.data.tobytes())
    assert h.hexdigest() == digest


def _names(node):
    """The bare or attribute names a comparison operand refers to."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _is_literal(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_literal(e) for e in node.elts)
    return False


def test_no_architecture_or_cell_name_is_compared_with_a_literal():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            named = set().union(*map(_names, operands)) & {"arch", "kind", "cell"}
            if named and any(_is_literal(o) for o in operands):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "architecture/cell names tested against literals at %s" % found
