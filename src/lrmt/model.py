"""The three recurrent encoder-decoder architectures behind one interface;
`ARCH_TABLE` says what each one is."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Parameter, Tensor
from .text import PAD, SOS, EOS, encode as encode_ids, length_sorted_chunks, pad_rows

# arch -> (cell kind in numerics.CELLS, encoder directions (a second one reads
# the source backwards), the context each decoder step reads besides its input
# (None, the encoder's final state "z", or "attention"), the head features in
# order: "x" input embedding, "c" context, "s" new state)
ArchSpec = namedtuple("ArchSpec", "cell directions context layout")
ARCH_TABLE = {
    # decoder initialised from the final encoder state; head f(s_t)
    "lstm": ArchSpec("lstm", ("enc",), None, ("s",)),
    # z reinjected at every step (Cho et al., arXiv:1406.1078); head f(d(y_t), s_t, z)
    "gru": ArchSpec("gru", ("enc",), "z", ("x", "s", "c")),
    # additive attention (Bahdanau et al., arXiv:1409.0473); head f(d(y_t), w_t, s_t)
    "abgru": ArchSpec("gru", ("enc_fwd", "enc_bwd"), "attention", ("x", "c", "s")),
}
ARCHITECTURES = tuple(ARCH_TABLE)


class RecurrentCell:
    """Single LSTM or GRU cell; weights stored as [input, gates*H]."""

    def __init__(self, kind, input_size, hidden_size, rng, prefix, dtype=None):
        if kind not in nm.CELLS:
            raise ValueError("unknown cell kind %r" % kind)
        self.kind = kind
        self.hidden_size = hidden_size
        gates = nm.CELLS[kind].gates
        self.W_i = Parameter(nm.init_uniform((input_size, gates * hidden_size), rng, dtype=dtype),
                             name=prefix + ".W_i")
        self.W_h = Parameter(nm.init_uniform((hidden_size, gates * hidden_size), rng, dtype=dtype),
                             name=prefix + ".W_h")
        self.b = Parameter(np.zeros(gates * hidden_size, dtype=self.W_i.dtype),
                           name=prefix + ".b")

    def parameters(self):
        return [self.W_i, self.W_h, self.b]

    def prune_units(self, unit_ids):
        """Zero and pin the incoming weights and bias entries of these units."""
        H = self.hidden_size
        gates = nm.CELLS[self.kind].gates
        unit_ids = np.asarray(unit_ids, dtype=np.int64)
        if unit_ids.size and (unit_ids.min() < 0 or unit_ids.max() >= H):
            raise IndexError("unit id out of range")
        cols = (np.arange(gates)[:, None] * H + unit_ids[None, :]).reshape(-1)
        for W in (self.W_i, self.W_h):
            rows = np.arange(W.data.shape[0])
            flat = (rows[:, None] * (gates * H) + cols[None, :]).reshape(-1)
            W.add_pruned(flat)
        self.b.add_pruned(cols)

    def pruned_units(self):
        """Units whose bias entries are pinned (the prune mask, recovered)."""
        if self.b.pruned is None:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.b.pruned % self.hidden_size)


class Linear:
    def __init__(self, in_size, out_size, rng, prefix, dtype=None):
        self.W = Parameter(nm.init_uniform((in_size, out_size), rng, dtype=dtype),
                           name=prefix + ".W")
        self.b = Parameter(np.zeros(out_size, dtype=self.W.dtype), name=prefix + ".b")

    def parameters(self):
        return [self.W, self.b]


@dataclass
class EncodeResult:
    """Per-token encoder states and decoder initialisation."""

    states: object            # Tensor [B, T, N], N = the model's analysis_width
    state: tuple              # initial decoder state: (z,), or (h, c) for LSTM; Tensors [B, H]
    mask: np.ndarray          # [B, T] bool; True at real tokens


@dataclass
class EncodedRows:
    """Id rows encoded once by `Seq2SeqModel.encode_all`: `states` [tokens, N]
    holds every live token's state, sentence by sentence, sentence i's from
    row starts[i], and `state` the decoder's initial state arrays, one row
    per sentence."""

    states: np.ndarray
    starts: np.ndarray
    state: tuple

    def gather(self, index, source):
        """The EncodeResult of the sentences `index`, whose right-padded id
        matrix is `source` [B, T]: states zero at the pads, Tensors that record nothing."""
        mask = source != PAD
        row, pos = np.nonzero(mask)
        states = np.zeros(mask.shape + self.states.shape[1:], dtype=self.states.dtype)
        states[row, pos] = self.states[self.starts[index][row] + pos]
        return EncodeResult(Tensor(states), tuple(Tensor(s[index]) for s in self.state), mask)


class Seq2SeqModel:
    """Encoder + optional attention + decoder + head, laid out by the
    architecture's row of `ARCH_TABLE`."""

    def __init__(self, arch, src_vocab, tgt_vocab, embed_size=300, hidden_size=512,
                 dropout=0.5, seed=0, dtype=None):
        if arch not in ARCH_TABLE:
            raise ValueError("unknown architecture %r" % arch)
        self.arch = arch
        self.spec = ARCH_TABLE[arch]
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        self.dropout = dropout
        self.dtype = dtype or nm.default_dtype()
        rng = np.random.default_rng(seed)
        self._build_encoder(rng)
        self._build_decoder(rng)

    # -- construction --------------------------------------------------------

    def _build_encoder(self, rng):
        E, H, D = self.embed_size, self.hidden_size, self.analysis_width
        self.src_emb = Parameter(nm.init_uniform((len(self.src_vocab), E), rng, dtype=self.dtype),
                                 name="src_emb")
        self.encoders = [RecurrentCell(self.spec.cell, E, H, rng, name, dtype=self.dtype)
                         for name in self.spec.directions]
        # several directions: the decoder starts from a projection of their final states
        self.enc_init = (Linear(D, H, rng, "enc_init", dtype=self.dtype)
                         if len(self.encoders) > 1 else None)

    def _build_decoder(self, rng):
        E, H, D = self.embed_size, self.hidden_size, self.analysis_width
        V = len(self.tgt_vocab)
        self.tgt_emb = Parameter(nm.init_uniform((V, E), rng, dtype=self.dtype), name="tgt_emb")
        self.attn_energy = self.attn_v = None
        if self.spec.context == "attention":
            self.attn_energy = Linear(H + D, H, rng, "attn_energy", dtype=self.dtype)
            # the score vector v; a score bias would shift every source
            # position alike, which the softmax cancels, so there is none
            self.attn_v = Parameter(nm.init_uniform((H, 1), rng, dtype=self.dtype),
                                    name="attn_score.W")
        C = {None: 0, "z": H, "attention": D}[self.spec.context]
        self.dec_cell = RecurrentCell(self.spec.cell, E + C, H, rng, "dec", dtype=self.dtype)
        head = sum({"x": E, "c": C, "s": H}[k] for k in self.spec.layout)
        self.out = Linear(head, V, rng, "out", dtype=self.dtype)

    # -- parameter plumbing ----------------------------------------------------

    @staticmethod
    def _walk(parts):
        """The parameters of `parts`, in order; a part is a Parameter, a layer or None."""
        return [p for part in parts if part is not None
                for p in ([part] if isinstance(part, Parameter) else part.parameters())]

    def named_parameters(self):
        decoder = [self.tgt_emb, self.attn_energy, self.attn_v, self.dec_cell, self.out]
        return {p.name: p for p in self.encoder_parameters() + self._walk(decoder)}

    def parameters(self):
        return list(self.named_parameters().values())

    def encoder_parameters(self):
        """Source embedding + every encoder-side parameter (incl. init proj)."""
        return self._walk([self.src_emb, *self.encoders, self.enc_init])

    def freeze_encoder(self):
        for p in self.encoder_parameters():
            p.frozen = True
        return self

    def rebind_decoder(self, new_tgt_vocab, seed):
        """Fresh decoder-side parameters for a new target vocabulary."""
        self.tgt_vocab = new_tgt_vocab
        self._build_decoder(np.random.default_rng(seed))
        return self

    @property
    def analysis_width(self):
        """Width of the per-token encoder state seen by the analysis layer."""
        return len(self.spec.directions) * self.hidden_size

    def prune_encoder_units(self, neuron_ids):
        """Silence encoder units by analysis index: direction k owns [kH, (k+1)H)."""
        neuron_ids = np.asarray(sorted(set(int(i) for i in neuron_ids)), dtype=np.int64)
        if neuron_ids.size == 0:
            return self
        N = self.analysis_width
        if neuron_ids.min() < 0 or neuron_ids.max() >= N:
            raise IndexError("neuron id out of range (width %d)" % N)
        H = self.hidden_size
        for k, cell in enumerate(self.encoders):
            own = neuron_ids[(neuron_ids >= k * H) & (neuron_ids < (k + 1) * H)] - k * H
            if own.size:
                cell.prune_units(own)
        return self

    def pruned_neurons(self):
        return np.concatenate([cell.pruned_units() + k * self.hidden_size
                               for k, cell in enumerate(self.encoders)])

    # -- forward ---------------------------------------------------------------

    def encode(self, source, rng=None):
        """Run the encoder over a right-padded id matrix [B, T] as one
        `numerics.encoder_sequence` op: an EncodeResult with per-token states,
        the initial decoder state and the bool pad mask (source != PAD).  With an
        `rng`, the embedding-dropout multipliers [B, T, E] draw from it first."""
        source = np.asarray(source)
        if source.ndim != 2 or 0 in source.shape:
            raise ValueError("encode expects a non-empty [B, T] id matrix")
        mask = source != PAD
        keep = nm.dropout_mask(source.shape + (self.embed_size,), self.dropout, rng, self.dtype)
        states, state = nm.encoder_sequence(
            self.spec.cell, source, mask, self.src_emb,
            [(cell.W_i, cell.b, cell.W_h) for cell in self.encoders], keep,
            self._walk([self.enc_init]))
        return EncodeResult(states, state, mask)

    def encode_all(self, sources, dtype=None):
        """Encode the id lists `sources` once, without a tape, in the padded
        batches of `text.length_sorted_chunks`, one `encode` each: the live
        tokens' states and the decoder's initial state rows as `EncodedRows`,
        the states in `dtype` (default the model's)."""
        starts = np.cumsum([0] + [len(ids) for ids in sources], dtype=np.int64)
        states = np.empty((starts[-1], self.analysis_width), dtype=dtype or self.dtype)
        state = tuple(np.empty((len(sources), self.hidden_size), dtype=self.dtype)
                      for _ in range(nm.CELLS[self.spec.cell].states))
        with nm.no_grad():
            for chunk in length_sorted_chunks(sources):
                enc = self.encode(pad_rows([sources[i] for i in chunk]))
                row, pos = np.nonzero(enc.mask)
                states[starts[chunk][row] + pos] = enc.states.data[row, pos]
                for rows, s in zip(state, enc.state):
                    rows[chunk] = s.data
        return EncodedRows(states, starts, state)

    def decode_step(self, y_prev_ids, state, enc):
        """One decoding step, checked and on Tensors, for callers outside
        the greedy loop: the teacher-forced pass's step function,
        `numerics.decoder_step`, without dropout or a tape, from `state`,
        the tuple of Tensors `EncodeResult.state` holds.  Returns (new state,
        logits [B, V]) as Tensors that record nothing, the logits over every
        id.  `y_prev_ids` holds one id per row of `enc`, B, and each state
        array is [B, H].  Every step reads the parameters' current arrays."""
        ids = np.asarray(y_prev_ids).reshape(-1)
        B, H = enc.mask.shape[0], self.hidden_size
        states = nm.CELLS[self.spec.cell].states
        if (ids.shape[0] != B or not isinstance(state, tuple) or len(state) != states
                or any(s.shape != (B, H) for s in state)):
            raise ValueError("an %s decoder state is a tuple of arrays of shapes %s, with "
                             "%d ids, one per row of the encoding"
                             % (self.arch, [(B, H)] * states, B))
        state, logits, _ = nm.decoder_step(ids, [s.data for s in state],
                                           *self._step_arrays(enc, self.out.b.data))
        return tuple(map(Tensor, state)), Tensor(logits)

    def _step_arrays(self, enc, head_b):
        """`numerics.decoder_step`'s arguments after the ids and the state,
        from the parameters' current arrays: the cell kind, embedding, W_i, b,
        W_h, head (out.W, `head_b`) and layout, then the context (z) and the
        attention over `enc`, formed here from the current energy, each None
        where the architecture has none."""
        cell, H = self.dec_cell, self.hidden_size
        context = attention = None
        if self.spec.context == "z":
            context = enc.state[0].data
        elif self.spec.context == "attention":
            W_e, b_e = self.attn_energy.parameters()
            attention = (W_e.data[:H], *nm.attention_arrays(W_e, b_e, enc.states, enc.mask),
                         self.attn_v.data)
        return (cell.kind, self.tgt_emb.data, cell.W_i.data, cell.b.data, cell.W_h.data,
                (self.out.W.data, head_b), self.spec.layout, context, attention)

    def forward_teacher_forced(self, batch, tf_ratio=1.0, rng=None):
        """Teacher-forced decode of a batch.  Returns logits Tensor [N, V],
        one row per target token (the non-pad entries of target[:, 1:], in
        row-major order), as `numerics.cross_entropy_masked` scores them.

        With an `rng` (training) dropout is applied and each step after the
        first reads the gold previous token with probability tf_ratio, else
        the model's own argmax over every id but pad, sos and unk
        (`decoder_noise` draws both).  Without one (evaluation) there is no
        dropout and every step reads the gold token.  The source is encoded
        here, with the rng, unless the batch holds its `encoding`: the rows
        a frozen, dropout-free encoder gave once per fit, for which `encode`
        would draw nothing.  Every decoder step and the output head are one
        fused op that runs on the rows whose target is not pad; the head is
        one GEMM over N rows.
        """
        if not 0.0 <= tf_ratio <= 1.0:
            raise ValueError("tf_ratio must be in [0, 1]")
        enc = self.encode(batch.source, rng=rng) if batch.encoding is None else batch.encoding
        B, Tt = batch.target.shape
        keep, gold = self.decoder_noise(rng, B, Tt - 1, tf_ratio)
        return nm.decoder_sequence(tokens=batch.target[:, :-1], gold=gold, state=enc.state,
                                   keep=keep, mask=batch.target[:, 1:] != PAD,
                                   **self._decoder_wiring(enc))

    def decoder_noise(self, rng, batch_size, steps, tf_ratio):
        """Dropout multipliers and scheduled-sampling coins for one
        teacher-forced pass (Bengio et al., arXiv:1506.03099).

        Drawn from `rng` after the encoder's dropout, in this order: the
        embedding mask [B, steps, E], the head-feature mask [B, steps, F]
        (no draw when dropout is 0), then one coin per step after the first.
        Returns ((embedding mask, feature mask), gold [steps]); gold[t] is
        true where step t reads the gold token.  Without an rng: no dropout,
        every step gold.
        """
        gold = np.ones(steps, dtype=bool)
        if rng is None:
            return (None, None), gold
        keep = tuple(nm.dropout_mask((batch_size, steps, width), self.dropout, rng, self.dtype)
                     for width in (self.embed_size, self.out.W.shape[0]))
        gold[1:] = rng.random(steps - 1) < tf_ratio
        return keep, gold

    def _decoder_wiring(self, enc):
        """The decoder's weights, output head, cell kind, head-feature layout
        and context (z, or attention over `enc`), as `numerics.decoder_sequence`
        reads them."""
        cell = self.dec_cell
        wiring = dict(cell=cell.kind, emb=self.tgt_emb, W_i=cell.W_i, b=cell.b, W_h=cell.W_h,
                      head=(self.out.W, self.out.b), layout=self.spec.layout)
        if self.spec.context == "z":
            wiring["context"] = enc.state[0]
        elif self.spec.context == "attention":
            wiring["attention"] = (*self.attn_energy.parameters(), enc.states, enc.mask,
                                   self.attn_v)
        return wiring

    def greedy_decode_batch(self, sources, max_len=50):
        """Greedy decode of a list of encoded source sequences (ids with sos/eos).

        The sources are padded into one [B, T] matrix and encoded once; the
        decoder then steps every row, `numerics.decoder_step` on plain arrays
        gathered once, until each has emitted eos or max_len steps have run.
        No step emits pad, sos or unk, ids that no training target holds: the
        head's bias is -inf there.  Records no tape.  Returns each row's
        output ids, excluding sos/eos, in input order: [] for no sources, and
        empty rows for max_len 0.  A negative max_len is a ValueError.
        """
        if max_len < 0:
            raise ValueError("max_len must be at least 0, got %r" % (max_len,))
        if len(sources) == 0:
            return []
        with nm.no_grad():
            enc = self.encode(pad_rows(sources))
        arrays = self._step_arrays(enc, nm.emit_bias(self.out.b.data))
        state = [s.data for s in enc.state]
        # column max_len stays eos, so every row has an eos to cut at
        grid = np.full((len(sources), max_len + 1), EOS, dtype=np.int64)
        prev = np.full(len(sources), SOS, dtype=np.int64)
        done = np.zeros(len(sources), dtype=bool)
        for t in range(max_len):
            state, logits, _ = nm.decoder_step(prev, state, *arrays)
            grid[:, t] = prev = logits.argmax(axis=1)
            done |= prev == EOS
            if done.all():
                break
        return [row[:row.index(EOS)] for row in grid.tolist()]

    def greedy_decode(self, source_ids, max_len=50):
        """Greedy decode of one encoded source sequence: a batch of one."""
        return self.greedy_decode_batch([source_ids], max_len=max_len)[0]

    def translate(self, tokens, max_len=50):
        """Tokens in, tokens out, through the current vocabularies."""
        ids = self.greedy_decode(encode_ids(tokens, self.src_vocab), max_len=max_len)
        return [self.tgt_vocab.token_of(i) for i in ids]
