"""Trace-word observables and their exact matrix gradients.

An observable is a finite sum of terms ``coeff * Re tr(W)`` or
``coeff * Im tr(W)`` where ``W`` is a word whose letters are either symbols
(``"G"``, ``"Ginv"``, ``"J"`` on the phase space, ``"X"``, ``"Y"`` on the
double) or fixed constant matrices. Symbols are resolved through an
environment mapping at evaluation time.

Trace cyclicity makes every such observable invariant under simultaneous
conjugation of all environment matrices, which is exactly the class of
functions the rank certificates need. Every gradient returned here is the
unique su(n) element representing the corresponding directional derivative
with respect to the inner product ``<X, Y> = -Re tr(XY)``.

Both gradients come from one occurrence loop: each occurrence of a varied
symbol contributes a signed cyclic chain of the word's letters, and a
per-symbol rule table says where that chain starts and how long it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import ShapeError, project_algebra

PHASE_LETTERS = ("G", "Ginv", "J")
DOUBLE_LETTERS = ("X", "Y")
_KNOWN_SYMBOLS = set(PHASE_LETTERS) | set(DOUBLE_LETTERS)


@dataclass(frozen=True)
class TraceWord:
    """One term ``coeff * part tr(letters...)``."""

    letters: tuple
    part: str = "re"
    coeff: float = 1.0

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("a trace word needs at least one letter")
        if self.part not in ("re", "im"):
            raise ValueError("part must be 're' or 'im'")
        if not np.isfinite(self.coeff):
            raise ValueError("coefficient must be finite")
        for letter in self.letters:
            if isinstance(letter, str) and letter not in _KNOWN_SYMBOLS:
                raise ValueError(f"unknown letter {letter!r}")


@dataclass(frozen=True)
class Observable:
    """Sum of trace words, evaluated against a letter environment."""

    words: tuple

    def __post_init__(self):
        if not all(isinstance(w, TraceWord) for w in self.words):
            raise TypeError("Observable takes TraceWord terms")


def observable(*words) -> Observable:
    return Observable(tuple(words))


def word(letters, part="re", coeff=1.0) -> TraceWord:
    return TraceWord(tuple(letters), part, float(coeff))


def _resolve(letter, env):
    if isinstance(letter, str):
        try:
            return env[letter]
        except KeyError:
            raise KeyError(f"environment does not bind letter {letter!r}") from None
    return letter


def _word_matrices(w: TraceWord, env):
    mats = [np.asarray(_resolve(letter, env)) for letter in w.letters]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ShapeError("letters evaluate to matrices of different sizes")
    return mats


def _chain(mats, start, count, n):
    """Product of ``count`` consecutive matrices starting at ``start``, cyclically."""
    if count == 0:
        return np.eye(n, dtype=complex)
    m = len(mats)
    out = mats[start % m]
    for k in range(1, count):
        out = out @ mats[(start + k) % m]
    return out


def evaluate(obs: Observable, env) -> float:
    """Value of the observable; always a finite real number."""
    total = 0.0
    for w in obs.words:
        mats = _word_matrices(w, env)
        t = np.trace(_chain(mats, 0, len(mats), mats[0].shape[0]))
        total += w.coeff * (t.real if w.part == "re" else t.imag)
    return float(total)


def _accumulate(grad, w: TraceWord, S):
    """Fold ``d/dt = coeff * part tr(X S)`` into an su(n) gradient."""
    if w.part == "re":
        return grad - w.coeff * project_algebra(S)
    return grad + w.coeff * project_algebra(1j * S)


def _occurrence_gradient(obs: Observable, env, rules):
    """Gradient summed over the occurrences of the symbols in ``rules``.

    ``rules`` maps a symbol to ``(offset, extra, sign)``: an occurrence at
    position ``i`` of a word of ``m`` letters contributes ``sign`` times the
    cyclic chain of ``m + extra`` letters starting at ``i + offset``. The
    matrix size is read from the environment, so an observable without terms
    has the zero gradient.
    """
    n = np.asarray(next(iter(env.values()))).shape[0]
    grad = np.zeros((n, n), dtype=complex)
    for w in obs.words:
        mats = _word_matrices(w, env)
        m = len(mats)
        S = np.zeros((n, n), dtype=complex)
        hit = False
        for i, lt in enumerate(w.letters):
            rule = rules.get(lt) if isinstance(lt, str) else None
            if rule is None:
                continue
            offset, extra, sign = rule
            C = _chain(mats, i + offset, m + extra, n)
            S = S + C if sign > 0 else S - C
            hit = True
        if hit:
            grad = _accumulate(grad, w, S)
    return grad


# an occurrence of ``G`` contributes the cyclic chain starting at the
# occurrence, one of ``Ginv`` minus the chain starting one step later (the
# inverse letter ends the rotated word)
_LEFT_GROUP_RULES = {"G": (0, 0, 1), "Ginv": (1, 0, -1)}


def letter_gradient(obs: Observable, env, letter: str):
    """Gradient with respect to an additive shift of one symbol.

    Returns the unique ``D`` in su(n) with
    ``<A, D> = d/dt value(letter -> letter + tA)`` for all ``A`` in su(n).
    Used for the ``J`` slot on the phase space and for either slot of the
    double.
    """
    return _occurrence_gradient(obs, env, {letter: (1, -1, 1)})


def left_group_gradient(obs: Observable, env):
    """Gradient of ``g -> e^{tA} g`` variations."""
    return _occurrence_gradient(obs, env, _LEFT_GROUP_RULES)


def substitute(obs: Observable, mapping) -> Observable:
    """Replace symbols by letter sequences, e.g. ``X -> (Ginv, J, G)``.

    Constant-matrix letters pass through unchanged.
    """
    new_words = []
    for w in obs.words:
        letters = []
        for lt in w.letters:
            if isinstance(lt, str) and lt in mapping:
                letters.extend(mapping[lt])
            else:
                letters.append(lt)
        new_words.append(TraceWord(tuple(letters), w.part, w.coeff))
    return Observable(tuple(new_words))


def random_word(rng, alphabet, max_len=4) -> TraceWord:
    """Uniform random word over ``alphabet`` with length in ``1..max_len``
    and a uniformly drawn part."""
    length = int(rng.integers(1, max_len + 1))
    letters = tuple(alphabet[int(k)] for k in rng.integers(0, len(alphabet), size=length))
    part = ("re", "im")[int(rng.integers(0, 2))]
    return TraceWord(letters, part, 1.0)


def random_observable(rng, alphabet, max_len=4) -> Observable:
    """Sum of one or two :func:`random_word` terms."""
    terms = int(rng.integers(1, 3))
    return Observable(tuple(random_word(rng, alphabet, max_len) for _ in range(terms)))
