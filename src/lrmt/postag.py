"""Deterministic rule-based POS tagging over the 17 Universal POS categories.

A closed-class lexicon covers function words; suffix rules and a digit check
handle the open classes; everything else is NOUN.  Consistency matters here,
tagging accuracy does not.
"""

from functools import lru_cache

UPOS_TAGS = [
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
]

_LEXICON = {}


def _enter(tag, words):
    for w in words:
        _LEXICON[w] = tag


_enter("DET", ["the", "a", "an", "this", "that", "these", "those", "every",
               "each", "some", "any", "no", "another", "all", "both"])
_enter("PRON", ["i", "you", "he", "she", "it", "we", "they", "me", "him",
                "her", "us", "them", "mine", "yours", "his", "hers", "ours",
                "theirs", "my", "your", "our", "their", "its", "who", "whom",
                "whose", "which", "what", "myself", "yourself", "himself",
                "herself", "itself", "ourselves", "themselves", "someone",
                "anyone", "everyone", "nobody", "something", "anything",
                "everything", "nothing"])
_enter("ADP", ["in", "on", "at", "by", "with", "from", "to", "of", "for",
               "about", "into", "onto", "over", "under", "between", "through",
               "during", "against", "among", "within", "without", "near",
               "across", "behind", "beyond", "up", "down", "off", "around"])
_enter("CCONJ", ["and", "or", "but", "nor", "yet", "plus"])
_enter("SCONJ", ["because", "although", "though", "while", "whereas", "if",
                 "unless", "since", "until", "when", "whenever", "where",
                 "wherever", "after", "before", "once", "so", "than",
                 "whether"])
_enter("AUX", ["am", "is", "are", "was", "were", "be", "been", "being",
               "have", "has", "had", "do", "does", "did", "will", "would",
               "shall", "should", "can", "could", "may", "might", "must"])
_enter("PART", ["not"])
_enter("INTJ", ["oh", "ah", "wow", "ouch", "hey", "hello", "hi", "yes", "no",
                "please", "bravo", "alas", "hmm", "oops"])
_enter("ADV", ["very", "too", "also", "just", "now", "then", "here", "there",
               "always", "never", "often", "sometimes", "again", "soon",
               "already", "still", "almost", "quite", "rather", "well",
               "today", "tomorrow", "yesterday", "maybe", "perhaps", "how",
               "why"])
_enter("VERB", ["go", "went", "gone", "come", "came", "see", "saw", "seen",
                "say", "said", "get", "got", "make", "made", "know", "knew",
                "think", "thought", "take", "took", "want", "give", "gave",
                "find", "found", "tell", "told", "put", "keep", "kept",
                "let", "run", "ran", "eat", "ate", "drink", "drank", "read",
                "write", "wrote", "speak", "spoke", "leave", "left", "meet",
                "met", "buy", "bought", "bring", "brought"])
# "no" appears under both DET and INTJ lists above; last entry wins, so pin it:
_LEXICON["no"] = "DET"

_PUNCT = set(".,!?;:-()[]{}\"'`")
_SYM = set("$%&#+=*/\\^~|<>@")

# (suffix, tag) checked in order; longest-sensible first
_SUFFIX_RULES = [
    ("ing", "VERB"),
    ("ed", "VERB"),
    ("ize", "VERB"),
    ("ise", "VERB"),
    ("ify", "VERB"),
    ("ly", "ADV"),
    ("ful", "ADJ"),
    ("less", "ADJ"),
    ("able", "ADJ"),
    ("ible", "ADJ"),
    ("ous", "ADJ"),
    ("ive", "ADJ"),
    ("ish", "ADJ"),
    ("est", "ADJ"),
]


@lru_cache(maxsize=1 << 14)
def tag_token(token):
    """Tag one token; total and deterministic.  A bounded cache keeps recent
    tags, so the rules run once per distinct token; `tag_token.__wrapped__`
    is the rule itself."""
    if not token:
        return "X"
    if all(ch in _PUNCT for ch in token):
        return "PUNCT"
    if all(ch in _SYM for ch in token):
        return "SYM"
    if token[0].isdigit() or token.replace(".", "").replace(",", "").isdigit():
        return "NUM"
    low = token.lower()
    if low in _LEXICON:
        return _LEXICON[low]
    for suffix, tag in _SUFFIX_RULES:
        if len(low) > len(suffix) + 1 and low.endswith(suffix):
            return tag
    if token[0].isupper():
        return "PROPN"
    return "NOUN"


def pos_tag(tokens):
    """Tag a token sequence; one tag per token."""
    return list(map(tag_token, tokens))
