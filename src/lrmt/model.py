"""The three recurrent encoder-decoder architectures behind one interface;
`ARCH_TABLE` says what each one is."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Parameter, Tensor
from .text import PAD, SOS, EOS, encode as encode_ids, pad_rows

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
        self.input_size = input_size
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

    def sequence(self, x, mask, reverse=False):
        """Every position of x [B, T, input]; pad positions (mask 0) carry.

        The input projection is one GEMM over all B*T rows.  Returns the
        states [B, T, H], the final h and, for LSTM, the final c (else None).
        The carry makes the final state that of each row's last real token.
        """
        B, T, _ = x.shape
        H = self.hidden_size
        flat = nm.reshape(x, (B * T, self.input_size))
        xp = nm.reshape((flat @ self.W_i) + self.b, (B, T, -1))
        zeros = Tensor(np.zeros((B, H), dtype=self.W_h.dtype))
        n = nm.CELLS[self.kind].states
        seq = nm.cell_sequence(self.kind, xp, (zeros,) * n, self.W_h, mask, reverse=reverse)
        final = nm.reshape(nm.narrow(seq, 0 if reverse else T - 1, 1, axis=1), (B, n * H))
        if n == 1:
            return seq, final, None
        return nm.narrow(seq, 0, H), nm.narrow(final, 0, H), nm.narrow(final, H, H)

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

    def __call__(self, x):
        return (x @ self.W) + self.b


@dataclass
class EncodeResult:
    """Per-token encoder states and decoder initialisation."""

    states: object            # Tensor [B, T, N], N = the model's analysis_width
    z: object                 # Tensor [B, H]; initial decoder hidden state
    cell: object              # Tensor [B, H] or None (LSTM cell state)
    mask: np.ndarray          # [B, T] {0,1}; 1 at real tokens
    attn_proj: object = None  # attention: encoder-side attention energy [B, T, H]

    def activations(self, row):
        """Per-token state vectors for one batch row, pad positions dropped."""
        live = self.mask[row].astype(bool)
        return self.states.data[row][live]


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
        """Run the encoder over a right-padded id matrix [B, T] for decoding.

        Returns `encode_states`' result with, for an attention decoder, the
        encoder-side attention projection it reads.  Dropout draws from
        `rng` when one is given.
        """
        enc = self.encode_states(source, rng=rng)
        if self.attn_energy is not None:
            enc.attn_proj = self._attention_projection(enc.states)
        return enc

    def encode_states(self, source, rng=None):
        """The encoder pass alone: an EncodeResult with per-token states, the
        initial decoder state z and the pad mask (source != PAD), no
        attention projection."""
        source = np.asarray(source)
        if source.ndim != 2 or source.shape[0] == 0:
            raise ValueError("encode expects a non-empty [B, T] id matrix")
        mask = (source != PAD).astype(self.dtype)
        emb = nm.dropout(nm.embedding(self.src_emb, source), self.dropout, rng)
        runs = [cell.sequence(emb, mask, reverse=k > 0) for k, cell in enumerate(self.encoders)]
        if self.enc_init is None:
            return EncodeResult(*runs[0], mask=mask)
        states, finals, _ = zip(*runs)
        states = nm.concat(states, axis=-1)
        z = nm.tanh(self.enc_init(nm.concat(finals, axis=-1)))
        return EncodeResult(states=states, z=z, cell=None, mask=mask)

    def _attention_projection(self, enc_states):
        """Encoder-side part of the additive energy, computed once per pass.

        The energy layer sees [s; h]: its first H weight rows act on the
        decoder state, the remaining rows on the encoder state.
        """
        B, T, D = enc_states.shape
        flat = nm.reshape(enc_states, (B * T, D))
        W_enc = nm.narrow(self.attn_energy.W, self.hidden_size, D, axis=0)
        proj = nm.matmul(flat, W_enc) + self.attn_energy.b
        return nm.reshape(proj, (B, T, self.hidden_size))

    def decode_step(self, y_prev_ids, s_prev, enc, cell_prev=None):
        """One greedy-decoding step on the teacher-forced pass's step
        function, without dropout or a tape.  Returns (s_t, logits [B, V],
        new cell state) as Tensors that record nothing."""
        y_prev_ids = np.asarray(y_prev_ids).reshape(-1)
        if s_prev.shape != (y_prev_ids.shape[0], self.hidden_size):
            raise ValueError("decoder state width mismatch")
        state = (s_prev, cell_prev)[:nm.CELLS[self.spec.cell].states]
        state, logits, _ = nm.decoder_step(ids=y_prev_ids, state=state,
                                           **self._decoder_wiring(enc))
        return Tensor(state[0]), Tensor(logits), Tensor(state[1]) if len(state) > 1 else None

    def forward_teacher_forced(self, batch, tf_ratio=1.0, rng=None):
        """Teacher-forced decode of a batch.  Returns logits Tensor [B, Tt-1, V].

        With an `rng` (training) dropout is applied and each step after the
        first reads the gold previous token with probability tf_ratio, else
        the model's own argmax (`decoder_noise` draws both).  Without one
        (evaluation) there is no dropout and every step reads the gold token.
        Every decoder step is one fused op that runs on the rows whose
        target is not pad (the head features of the others are 0); the
        output head is one GEMM over all B*(Tt-1) rows.
        """
        if not 0.0 <= tf_ratio <= 1.0:
            raise ValueError("tf_ratio must be in [0, 1]")
        enc = self.encode(batch.source, rng=rng)
        B, Tt = batch.target.shape
        keep, gold = self.decoder_noise(rng, B, Tt - 1, tf_ratio)
        feats = self.decoder_features(enc, batch.target[:, :-1], keep, gold,
                                      batch.target[:, 1:] != PAD)
        logits = self.out(nm.reshape(feats, (B * (Tt - 1), feats.shape[-1])))
        return nm.reshape(logits, (B, Tt - 1, len(self.tgt_vocab)))

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

    def decoder_features(self, enc, inputs, keep, gold, mask):
        """Head features [B, S, F] of every decoder step over gold inputs
        [B, S], one `numerics.decoder_sequence` op; `mask` [B, S] marks the
        positions read."""
        state = (enc.z, enc.cell)[:nm.CELLS[self.spec.cell].states]
        return nm.decoder_sequence(tokens=inputs, gold=gold, state=state, keep=keep, mask=mask,
                                   **self._decoder_wiring(enc))

    def _decoder_wiring(self, enc):
        """The decoder's weights, cell kind, head-feature layout and context
        (z, or attention over `enc`), as `numerics.decoder_sequence` and
        `numerics.decoder_step` both read them."""
        cell = self.dec_cell
        wiring = dict(cell=cell.kind, emb=self.tgt_emb, W_i=cell.W_i, b=cell.b, W_h=cell.W_h,
                      head=(self.out.W, self.out.b), layout=self.spec.layout)
        if self.spec.context == "z":
            wiring["context"] = enc.z
        elif self.spec.context == "attention":
            wiring["attention"] = (self.attn_energy.W, enc.attn_proj, enc.states, enc.mask,
                                   self.attn_v)
        return wiring

    def greedy_decode_batch(self, sources, max_len=50):
        """Greedy decode of a list of encoded source sequences (ids with sos/eos).

        The sources are padded into one [B, T] matrix and encoded once; the
        decoder then steps every row until each has emitted eos or max_len
        steps have run.  Records no tape.  Returns each row's output ids,
        excluding sos/eos, in input order.
        """
        with nm.no_grad():
            enc = self.encode(pad_rows(sources))
            s, c = enc.z, enc.cell
            # column max_len stays eos, so every row has an eos to cut at
            grid = np.full((len(sources), max_len + 1), EOS, dtype=np.int64)
            prev = np.full(len(sources), SOS, dtype=np.int64)
            done = np.zeros(len(sources), dtype=bool)
            for t in range(max_len):
                s, logits, c = self.decode_step(prev, s, enc, cell_prev=c)
                prev = logits.data.argmax(axis=1)
                grid[:, t] = prev
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
