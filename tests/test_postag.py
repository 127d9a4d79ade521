"""Rule-based POS tagger: lexicon, suffix rules, shape rules."""

from hypothesis import given
from hypothesis import strategies as st

from lrmt.postag import _LEXICON, UPOS_TAGS, pos_tag, tag_token
from lrmt.text import preprocess


def test_closed_class_lexicon():
    assert tag_token("the") == "DET"
    assert tag_token("she") == "PRON"
    assert tag_token("under") == "ADP"
    assert tag_token("and") == "CCONJ"
    assert tag_token("because") == "SCONJ"
    assert tag_token("is") == "AUX"
    assert tag_token("not") == "PART"
    assert tag_token("very") == "ADV"


def test_suffix_rules():
    assert tag_token("running") == "VERB"
    assert tag_token("walked") == "VERB"
    assert tag_token("quickly") == "ADV"
    assert tag_token("beautiful") == "ADJ"
    assert tag_token("harmless") == "ADJ"


def test_shape_rules():
    assert tag_token("42") == "NUM"
    assert tag_token("3.14") == "NUM"
    assert tag_token("!") == "PUNCT"
    assert tag_token("...") == "PUNCT"
    assert tag_token("Maria") == "PROPN"
    assert tag_token("table") == "NOUN"


def test_sentence_tagging_and_tagset_membership():
    tokens = "the cat walked quickly to Maria and slept .".split()
    tags = pos_tag(tokens)
    assert len(tags) == len(tokens)
    assert set(tags) <= set(UPOS_TAGS)
    assert tags[0] == "DET"
    assert tags[-1] == "PUNCT"
    assert tags[5] == "PROPN"


def test_every_lexicon_entry_survives_preprocessing():
    # tagging runs on preprocessed tokens, so an entry that preprocess
    # rewrites could never be matched
    assert [w for w in _LEXICON if preprocess(w) != w] == []


@given(st.lists(st.text(max_size=8) | st.sampled_from(sorted(_LEXICON)), max_size=20))
def test_cached_tags_equal_the_rule(tokens):
    # twice over, so the second pass reads every tag back from the cache
    for _ in range(2):
        assert pos_tag(tokens) == [tag_token.__wrapped__(t) for t in tokens]
