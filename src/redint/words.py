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

Symbols may be bound to stacks ``(..., n, n)``; values and gradients then
carry the leading shape, each point equal bit for bit to its one-point call.
Both gradients come from one kernel over a sequence of observables: each
occurrence of a varied symbol contributes a signed cyclic chain of the word's
letters, and a per-symbol rule table says where that chain starts and how
long it is. Chains that share a prefix are multiplied once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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


def _env_shape(env):
    """``(lead, n)`` of an environment whose letters are stacks ``(..., n, n)``
    of one ``n``; ``lead`` is the broadcast of their leading shapes."""
    shapes = [np.shape(m) for m in env.values()]
    n = shapes[0][-1] if shapes and shapes[0] else None
    if n is None or any(s[-2:] != (n, n) for s in shapes):
        raise ShapeError(f"environment letters have shapes {shapes}, not (..., n, n) of one n")
    if all(s == shapes[0] for s in shapes):
        return shapes[0][:-2], n
    return np.broadcast_shapes(*(s[:-2] for s in shapes)), n


def _word_matrices(w: TraceWord, env, n):
    try:
        mats = [np.asarray(env[lt] if isinstance(lt, str) else lt) for lt in w.letters]
    except KeyError as exc:
        raise KeyError(f"environment does not bind letter {exc.args[0]!r}") from None
    if any(m.ndim < 2 or m.shape[-2:] != (n, n) for m in mats):
        raise ShapeError(f"letters evaluate to {[m.shape for m in mats]}, not (..., {n}, {n})")
    return mats


def evaluate(obs: Observable, env):
    """Value of the observable: a finite real number, or an array over the
    stacks ``(..., n, n)`` the environment binds, each entry its one-point value."""
    lead, n = _env_shape(env)
    total = np.zeros(lead)
    for w in obs.words:
        t = np.trace(reduce(np.matmul, _word_matrices(w, env, n)), axis1=-2, axis2=-1)
        total += w.coeff * (t.real if w.part == "re" else t.imag)
    return float(total) if total.ndim == 0 else total


def _gradient_stacks(observables, env, tables):
    """Gradients of all ``observables`` at ``env``, one ``(K,) + lead + (n, n)``
    stack per table: a symbol (its additive shift) or a rule table mapping a
    symbol to ``(offset, extra, sign)``. An occurrence at position ``i`` of a
    word of ``m`` letters contributes ``sign`` times the cyclic chain of
    ``m + extra`` letters from ``i + offset``, built left to right as its
    memoized prefix (symbols keyed by name, constants by identity) times its
    last letter. Each term's ``S`` or ``1j * S`` goes through one stacked
    :func:`project_algebra`, and each gradient folds its terms from zero.
    """
    lead, n = _env_shape(env)
    tables = [{t: (1, -1, 1)} if isinstance(t, str) else t for t in tables]
    memo = {}
    sums, folds = [], []
    for k, obs in enumerate(observables):
        for w in obs.words:
            mats = _word_matrices(w, env, n)
            keys = [lt if isinstance(lt, str) else id(lt) for lt in w.letters]
            m = len(mats)
            for t, rules in enumerate(tables):
                S = None
                for i, key in enumerate(keys):
                    rule = rules.get(key)
                    if rule is None:
                        continue
                    offset, extra, sign = rule
                    C, level = None, memo
                    for j in range(i + offset, i + offset + m + extra):
                        j %= m
                        node = level.get(keys[j])
                        if node is None:
                            node = level[keys[j]] = (mats[j] if C is None else C @ mats[j], {})
                        C, level = node
                    C = np.eye(n, dtype=complex) if C is None else C
                    S = np.zeros(lead + (n, n), dtype=complex) if S is None else S
                    S = S + C if sign > 0 else S - C
                if S is not None:
                    sums.append(S if w.part == "re" else 1j * S)
                    folds.append((t, k, w))
    grads = np.zeros((len(tables), len(observables)) + lead + (n, n), dtype=complex)
    projected = project_algebra(np.array(sums).reshape((len(sums),) + lead + (n, n)))
    for (t, k, w), P in zip(folds, projected):
        if w.part == "re":
            grads[t, k] -= w.coeff * P
        else:
            grads[t, k] += w.coeff * P
    return grads


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
    return _gradient_stacks((obs,), env, (letter,))[0, 0]


def left_group_gradient(obs: Observable, env):
    """Gradient of ``g -> e^{tA} g`` variations."""
    return _gradient_stacks((obs,), env, (_LEFT_GROUP_RULES,))[0, 0]


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
