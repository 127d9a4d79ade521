"""The three recurrent encoder-decoder architectures behind one interface.

* "lstm":  unidirectional LSTM encoder/decoder, decoder initialised from the
           final encoder state, output head f(s_t).
* "gru":   unidirectional GRU encoder/decoder; the encoder context vector z
           is reinjected into the decoder cell and the output head at every
           step: f(d(y_t), s_t, z).
* "abgru": bidirectional GRU encoder with additive attention; decoder cell
           input is [d(y_t); w_t] and the head is f(d(y_t), w_t, s_t).
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Parameter, Tensor
from .text import SOS, EOS

ARCHITECTURES = ("lstm", "gru", "abgru")


class RecurrentCell:
    """Single LSTM or GRU cell; weights stored as [input, gates*H]."""

    def __init__(self, kind, input_size, hidden_size, rng, prefix, dtype=None):
        if kind not in ("lstm", "gru"):
            raise ValueError("unknown cell kind %r" % kind)
        self.kind = kind
        self.input_size = input_size
        self.hidden_size = hidden_size
        gates = 4 if kind == "lstm" else 3
        self.W_i = Parameter(nm.init_uniform((input_size, gates * hidden_size), rng, dtype=dtype),
                             name=prefix + ".W_i")
        self.W_h = Parameter(nm.init_uniform((hidden_size, gates * hidden_size), rng, dtype=dtype),
                             name=prefix + ".W_h")
        self.b = Parameter(np.zeros(gates * hidden_size, dtype=self.W_i.dtype),
                           name=prefix + ".b")

    def parameters(self):
        return [self.W_i, self.W_h, self.b]

    def step(self, x, h, c=None):
        """One timestep.  Returns h' (and c' for LSTM)."""
        xp = (x @ self.W_i) + self.b
        if self.kind == "gru":
            return nm.gru_step(xp, h, self.W_h)
        H = self.hidden_size
        hc = nm.lstm_step(xp, h, c, self.W_h)
        return nm.narrow(hc, 0, H), nm.narrow(hc, H, H)

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
        last = 0 if reverse else T - 1
        if self.kind == "gru":
            states = nm.gru_sequence(xp, zeros, self.W_h, mask, reverse=reverse)
            return states, nm.reshape(nm.narrow(states, last, 1, axis=1), (B, H)), None
        hc = nm.lstm_sequence(xp, zeros, zeros, self.W_h, mask, reverse=reverse)
        final = nm.reshape(nm.narrow(hc, last, 1, axis=1), (B, 2 * H))
        return nm.narrow(hc, 0, H), nm.narrow(final, 0, H), nm.narrow(final, H, H)

    def prune_units(self, unit_ids):
        """Zero and pin the incoming weights and bias entries of these units."""
        H = self.hidden_size
        gates = 4 if self.kind == "lstm" else 3
        unit_ids = np.asarray(unit_ids, dtype=np.int64)
        if unit_ids.size and (unit_ids.min() < 0 or unit_ids.max() >= H):
            raise IndexError("unit id out of range")
        cols = (np.arange(gates)[:, None] * H + unit_ids[None, :]).reshape(-1)
        total = gates * H
        for W in (self.W_i, self.W_h):
            rows = np.arange(W.data.shape[0])
            flat = (rows[:, None] * total + cols[None, :]).reshape(-1)
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

    states: object            # Tensor [B, T, N] (N = H, or 2H for abgru)
    z: object                 # Tensor [B, H]; initial decoder hidden state
    cell: object              # Tensor [B, H] or None (LSTM cell state)
    mask: np.ndarray          # [B, T] {0,1}; 1 at real tokens
    attn_proj: object = None  # cached encoder-side attention projection

    def activations(self, row):
        """Per-token state vectors for one batch row, pad positions dropped."""
        live = self.mask[row].astype(bool)
        return self.states.data[row][live]


class Seq2SeqModel:
    """Architecture-tagged encoder + optional attention + decoder + head."""

    def __init__(self, arch, src_vocab, tgt_vocab, embed_size=300, hidden_size=512,
                 attn_size=None, dropout=0.5, seed=0, dtype=None):
        if arch not in ARCHITECTURES:
            raise ValueError("unknown architecture %r" % arch)
        self.arch = arch
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.embed_size = embed_size
        self.hidden_size = hidden_size
        self.attn_size = attn_size or hidden_size
        self.dropout = dropout
        self.dtype = dtype or nm.default_dtype()
        rng = np.random.default_rng(seed)
        self._build_encoder(rng)
        self._build_decoder(rng)

    # -- construction --------------------------------------------------------

    def _build_encoder(self, rng):
        E, H = self.embed_size, self.hidden_size
        self.src_emb = Parameter(nm.init_uniform((len(self.src_vocab), E), rng, dtype=self.dtype),
                                 name="src_emb")
        if self.arch == "abgru":
            self.enc_fwd = RecurrentCell("gru", E, H, rng, "enc_fwd", dtype=self.dtype)
            self.enc_bwd = RecurrentCell("gru", E, H, rng, "enc_bwd", dtype=self.dtype)
            self.enc_init = Linear(2 * H, H, rng, "enc_init", dtype=self.dtype)
            self.enc_cell = None
        else:
            kind = "lstm" if self.arch == "lstm" else "gru"
            self.enc_cell = RecurrentCell(kind, E, H, rng, "enc", dtype=self.dtype)
            self.enc_fwd = self.enc_bwd = self.enc_init = None

    def _build_decoder(self, rng):
        E, H, A = self.embed_size, self.hidden_size, self.attn_size
        V = len(self.tgt_vocab)
        self.tgt_emb = Parameter(nm.init_uniform((V, E), rng, dtype=self.dtype), name="tgt_emb")
        if self.arch == "lstm":
            self.dec_cell = RecurrentCell("lstm", E, H, rng, "dec", dtype=self.dtype)
            self.out = Linear(H, V, rng, "out", dtype=self.dtype)
            self.attn_energy = self.attn_score = None
        elif self.arch == "gru":
            self.dec_cell = RecurrentCell("gru", E + H, H, rng, "dec", dtype=self.dtype)
            self.out = Linear(E + H + H, V, rng, "out", dtype=self.dtype)
            self.attn_energy = self.attn_score = None
        else:
            self.attn_energy = Linear(H + 2 * H, A, rng, "attn_energy", dtype=self.dtype)
            self.attn_score = Linear(A, 1, rng, "attn_score", dtype=self.dtype)
            self.dec_cell = RecurrentCell("gru", E + 2 * H, H, rng, "dec", dtype=self.dtype)
            self.out = Linear(E + 2 * H + H, V, rng, "out", dtype=self.dtype)

    # -- parameter plumbing ----------------------------------------------------

    def named_parameters(self):
        params = {}
        params["src_emb"] = self.src_emb
        for cell in (self.enc_cell, self.enc_fwd, self.enc_bwd):
            if cell is not None:
                for p in cell.parameters():
                    params[p.name] = p
        if self.enc_init is not None:
            for p in self.enc_init.parameters():
                params[p.name] = p
        params["tgt_emb"] = self.tgt_emb
        for part in (self.attn_energy, self.attn_score, self.dec_cell, self.out):
            if part is None:
                continue
            plist = part.parameters()
            for p in plist:
                params[p.name] = p
        return params

    def parameters(self):
        return list(self.named_parameters().values())

    def encoder_parameters(self):
        """Source embedding + every encoder-side parameter (incl. init proj)."""
        return [p for name, p in self.named_parameters().items()
                if name == "src_emb" or name.startswith("enc")]

    def freeze_encoder(self):
        for p in self.encoder_parameters():
            p.frozen = True
        return self

    def rebind_decoder(self, new_tgt_vocab, seed):
        """Fresh decoder-side parameters for a new target vocabulary."""
        self.tgt_vocab = new_tgt_vocab
        rng = np.random.default_rng(seed)
        self._build_decoder(rng)
        return self

    @property
    def analysis_width(self):
        """Width of the per-token encoder state seen by the analysis layer."""
        return 2 * self.hidden_size if self.arch == "abgru" else self.hidden_size

    def prune_encoder_units(self, neuron_ids):
        """Silence encoder units by analysis index (k < H forward, k >= H backward)."""
        neuron_ids = np.asarray(sorted(set(int(i) for i in neuron_ids)), dtype=np.int64)
        if neuron_ids.size == 0:
            return self
        N = self.analysis_width
        if neuron_ids.min() < 0 or neuron_ids.max() >= N:
            raise IndexError("neuron id out of range (width %d)" % N)
        H = self.hidden_size
        if self.arch == "abgru":
            fwd = neuron_ids[neuron_ids < H]
            bwd = neuron_ids[neuron_ids >= H] - H
            if fwd.size:
                self.enc_fwd.prune_units(fwd)
            if bwd.size:
                self.enc_bwd.prune_units(bwd)
        else:
            self.enc_cell.prune_units(neuron_ids)
        return self

    def pruned_neurons(self):
        if self.arch == "abgru":
            fwd = self.enc_fwd.pruned_units()
            bwd = self.enc_bwd.pruned_units() + self.hidden_size
            return np.concatenate([fwd, bwd])
        return self.enc_cell.pruned_units()

    # -- forward ---------------------------------------------------------------

    def encode(self, source, lengths=None, rng=None, training=False):
        """Run the encoder over a padded id matrix [B, T].

        Returns an EncodeResult with per-token states, the initial decoder
        state z, and the pad mask.
        """
        source = np.asarray(source)
        if source.ndim != 2 or source.shape[0] == 0:
            raise ValueError("encode expects a non-empty [B, T] id matrix")
        T = source.shape[1]
        if lengths is None:
            lengths = (source != 0).sum(axis=1)
        mask = (np.arange(T)[None, :] < np.asarray(lengths)[:, None]).astype(self.dtype)

        emb = nm.embedding(self.src_emb, source)          # [B, T, E]
        if training and rng is not None:
            emb = nm.dropout(emb, self.dropout, rng, training=True)

        if self.arch == "abgru":
            fwd, h_fwd_final, _ = self.enc_fwd.sequence(emb, mask)
            bwd, h_bwd_final, _ = self.enc_bwd.sequence(emb, mask, reverse=True)
            states = nm.concat([fwd, bwd], axis=-1)       # [B, T, 2H]
            z = nm.tanh(self.enc_init(nm.concat([h_fwd_final, h_bwd_final], axis=-1)))
            return EncodeResult(states=states, z=z, cell=None, mask=mask)

        states, h_final, c_final = self.enc_cell.sequence(emb, mask)
        return EncodeResult(states=states, z=h_final, cell=c_final, mask=mask)

    def _attention_projection(self, enc_states):
        """Encoder-side part of the additive energy, computable once per pass.

        The energy layer sees [s; h]: its first H weight rows act on the
        decoder state, the remaining rows on the encoder state.
        """
        B, T, D = enc_states.shape
        flat = nm.reshape(enc_states, (B * T, D))
        W_enc = nm.narrow(self.attn_energy.W, self.hidden_size, D, axis=0)
        proj = nm.matmul(flat, W_enc) + self.attn_energy.b
        return nm.reshape(proj, (B, T, self.attn_size))

    def attention_weights(self, s_prev, enc_states, mask, proj=None):
        """Additive attention over source positions; pads get exactly 0 weight."""
        if not np.asarray(mask).any(axis=-1).all():
            raise ValueError("attention over fully padded sequence")
        B, T, D = enc_states.shape
        if proj is None:
            proj = self._attention_projection(enc_states)
        W_dec = nm.narrow(self.attn_energy.W, 0, self.hidden_size, axis=0)
        s_proj = nm.reshape(nm.matmul(s_prev, W_dec), (B, 1, self.attn_size))
        energy = nm.tanh(proj + s_proj)                   # [B, T, A]
        flat = nm.reshape(energy, (B * T, self.attn_size))
        scores = nm.reshape(self.attn_score(flat), (B, T))
        return nm.masked_softmax(scores, mask)            # [B, T]

    def decode_step(self, y_prev_ids, s_prev, enc, cell_prev=None, rng=None, training=False):
        """One decoder step.  Returns (s_t, logits [B, V], new cell state)."""
        y_prev_ids = np.asarray(y_prev_ids).reshape(-1)
        B = y_prev_ids.shape[0]
        if s_prev.shape != (B, self.hidden_size):
            raise ValueError("decoder state width mismatch")
        emb = nm.embedding(self.tgt_emb, y_prev_ids)      # [B, E]
        if training and rng is not None:
            emb = nm.dropout(emb, self.dropout, rng, training=True)

        if self.arch == "lstm":
            s_t, c_t = self.dec_cell.step(emb, s_prev, cell_prev)
            feats = s_t
        elif self.arch == "gru":
            s_t = self.dec_cell.step(nm.concat([emb, enc.z], axis=-1), s_prev)
            c_t = None
            feats = nm.concat([emb, s_t, enc.z], axis=-1)
        else:
            if enc.attn_proj is None:
                enc.attn_proj = self._attention_projection(enc.states)
            a_t = self.attention_weights(s_prev, enc.states, enc.mask,
                                         proj=enc.attn_proj)
            w_t = nm.tsum(nm.reshape(a_t, (B, a_t.shape[1], 1)) * enc.states, axis=1)
            s_t = self.dec_cell.step(nm.concat([emb, w_t], axis=-1), s_prev)
            c_t = None
            feats = nm.concat([emb, w_t, s_t], axis=-1)

        if training and rng is not None:
            feats = nm.dropout(feats, self.dropout, rng, training=True)
        logits = self.out(feats)
        return s_t, logits, c_t

    def forward_teacher_forced(self, batch, tf_ratio=1.0, rng=None, training=True):
        """Teacher-forced decode of a batch.  Returns logits Tensor [B, Tt-1, V].

        Per step the gold previous token is fed with probability tf_ratio,
        otherwise the model's own argmax; draws come from `rng`.
        """
        if not 0.0 <= tf_ratio <= 1.0:
            raise ValueError("tf_ratio must be in [0, 1]")
        enc = self.encode(batch.source, batch.source_lengths, rng=rng, training=training)
        targets = batch.target
        B, Tt = targets.shape
        s = enc.z
        c = enc.cell
        inputs = targets[:, 0]                            # always sos
        step_logits = []
        for t in range(Tt - 1):
            s, logits, c = self.decode_step(inputs, s, enc, cell_prev=c,
                                            rng=rng, training=training)
            step_logits.append(logits)
            use_gold = True if rng is None else bool(rng.random() < tf_ratio)
            inputs = targets[:, t + 1] if use_gold else logits.data.argmax(axis=1)
        return nm.stack(step_logits, axis=1)

    def greedy_decode(self, source_ids, max_len=50):
        """Greedy decode of one encoded source sequence (list of ids with sos/eos).

        Returns output ids excluding sos/eos.
        """
        source = np.asarray(source_ids, dtype=np.int64).reshape(1, -1)
        enc = self.encode(source)
        s, c = enc.z, enc.cell
        out = []
        prev = np.array([SOS])
        for _ in range(max_len):
            s, logits, c = self.decode_step(prev, s, enc, cell_prev=c)
            nxt = int(logits.data.argmax(axis=1)[0])
            if nxt == EOS:
                break
            out.append(nxt)
            prev = np.array([nxt])
        return out

    def translate(self, tokens, max_len=50):
        """Tokens in, tokens out, through the current vocabularies."""
        from .text import encode as encode_ids
        ids = self.greedy_decode(encode_ids(tokens, self.src_vocab), max_len=max_len)
        return [self.tgt_vocab.token_of(i) for i in ids]
