"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with plain dicts, sorting, and
exact Fraction / big-integer arithmetic, sharing no code with the
package under test.  Two groups are exceptions.  ``entropy`` and
``info_gain`` give the textbook float information gain that the tree's
exact split comparison ranks.  The curve sweeps at the end are the
straightforward per-threshold and per-record float loops, kept so that
the vectorised curves can be required to equal them exactly, same
floating-point operations in the same order.  The fold
deal draws from ``np.random.default_rng``, the independent reference for
the PCG64 stream the library reproduces in pure Python, and deals
record by record.  ``table_as_tree`` only converts a trained
``TreeModel`` into ``tree``'s nested form, so the two can be compared.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from turnout import Attribute, AttributeSchema, DataError, Dataset


def tiny_schema(domain_sizes, n_classes, names=None):
    """Schema factory for synthetic datasets: a0..aJ over v0..vK, target y."""
    features = tuple(
        Attribute(
            name=(names[j] if names else f"a{j}"),
            values=tuple(f"v{v}" for v in range(size)),
        )
        for j, size in enumerate(domain_sizes)
    )
    target = Attribute(name="y", values=tuple(f"c{c}" for c in range(n_classes)))
    return AttributeSchema(features=features, target=target)


def tiny_dataset(rows, labels, domain_sizes, n_classes):
    return Dataset(
        schema=tiny_schema(domain_sizes, n_classes),
        rows=tuple(tuple(r) for r in rows),
        labels=tuple(labels) if labels is not None else None,
    )


def parse_csv(text, schema, labeled):
    """The cell-by-cell parser: every cell canonicalised, then looked up.

    Raises ``DataError`` with the library's messages, for the earliest
    failing line and, within it, the earliest failing cell.
    """

    def canonical(cell):
        return " ".join(cell.split())

    numbered = [
        (lineno, line)
        for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1)
        if line.strip()
    ]
    if not numbered:
        raise DataError("data file has no header line")
    columns = list(schema.features) + ([schema.target] if labeled else [])
    expected = [attr.name for attr in columns]
    header = [canonical(cell) for cell in numbered[0][1].split(",")]
    if header != expected:
        raise DataError(f"header mismatch: expected {expected}, got {header}")
    records = []
    for lineno, line in numbered[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DataError(f"line {lineno}: expected {len(columns)} columns, got {len(cells)}")
        record = []
        for attr, cell in zip(columns, cells):
            value = canonical(cell)
            if not value:
                raise DataError(f"line {lineno}: empty value in column {attr.name!r}")
            if value not in attr.values:
                raise DataError(
                    f"line {lineno}: unknown value {value!r} for attribute {attr.name!r}"
                )
            record.append(attr.values.index(value))
        records.append(record)
    d = len(schema.features)
    return Dataset(
        schema=schema,
        rows=tuple(tuple(r[:d]) for r in records),
        labels=tuple(r[d] for r in records) if labeled else None,
    )


def permutations(seed, lengths):
    """``permutation(n)`` for each n in ``lengths``, in turn, all from one
    numpy generator seeded with ``seed``, as lists."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(n).tolist() for n in lengths]


def stratified_folds(labels, n_classes, folds, seed):
    """The per-record deal: each class's record positions, in class order
    and shuffled by numpy's generator seeded with ``seed`` (the stream the
    library reproduces), dealt one at a time onto a single round-robin
    cursor.  Returns each record's fold."""
    rng = np.random.default_rng(seed)
    fold_of = [0] * len(labels)
    cursor = 0
    for c in range(n_classes):
        for i in rng.permutation([i for i, y in enumerate(labels) if y == c]).tolist():
            fold_of[i] = cursor % folds
            cursor += 1
    return tuple(fold_of)


def knn_proba(rows, labels, n_classes, k, query):
    """Exhaustive scan: sort by (distance, position), vote over min(k, n)."""
    distances = [
        (sum(1 for a, b in zip(row, query) if a != b), i) for i, row in enumerate(rows)
    ]
    distances.sort()
    used = min(k, len(rows))
    votes = [0] * n_classes
    for _, i in distances[:used]:
        votes[labels[i]] += 1
    return [Fraction(v, used) for v in votes]


def nb_proba(rows, labels, domain_sizes, n_classes, alpha, query):
    """Smoothed joint likelihood evaluated in exact rational arithmetic."""
    a = Fraction(alpha)
    n = len(rows)
    per_class = {c: labels.count(c) for c in range(n_classes)}
    scores = []
    for c in range(n_classes):
        score = Fraction(per_class[c], n)
        if per_class[c] == 0:
            scores.append(score)  # prior 0: the class scores 0 for any alpha
            continue
        for j, v in enumerate(query):
            seen = sum(1 for row, y in zip(rows, labels) if y == c and row[j] == v)
            score *= (seen + a) / (per_class[c] + a * domain_sizes[j])
        scores.append(score)
    total = sum(scores)
    if total == 0:
        return [Fraction(per_class[c], n) for c in range(n_classes)]
    return [s / total for s in scores]


def _partition_ratio(groups):
    """Fraction p/q with sum_g n_g * H(group_g) = log2(p/q).

    p multiplies n_g ** n_g per group, q multiplies count ** count per
    class cell; smaller ratio means lower weighted child entropy.
    """
    p = 1
    q = 1
    for counts in groups:
        n_g = sum(counts)
        if n_g:
            p *= n_g**n_g
        for c in counts:
            if c:
                q *= c**c
    return Fraction(p, q)


def entropy(counts):
    """Shannon entropy of a class distribution, in bits."""
    total = sum(counts)
    if total <= 0:
        raise ValueError("entropy needs a nonempty distribution")
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def info_gain(data, attribute):
    """Information gain, in bits, of splitting a labeled dataset on one
    attribute: H(parent) - sum_v n_v / n * H(child_v), in floats."""
    j = data.schema.feature_index(attribute)
    table = [[0] * data.schema.n_classes for _ in range(data.schema.features[j].size)]
    for row, y in zip(data.matrix.tolist(), data.label_array.tolist()):
        table[row[j]][y] += 1
    parent = [sum(column) for column in zip(*table)]
    total = sum(parent)
    if not total:
        raise ValueError("info_gain needs at least one record")
    weighted = 0.0
    for row in table:
        if sum(row):
            weighted += sum(row) / total * entropy(row)
    return entropy(parent) - weighted


def best_split(rows, labels, domain_sizes, n_classes, available=None):
    """Attribute index with maximal info gain, ties to the earlier index.

    Returns None when no attribute has strictly positive gain.  All
    comparisons are exact, so ties are decided by position alone.
    """
    if available is None:
        available = range(len(domain_sizes))
    parent = [labels.count(c) for c in range(n_classes)]
    parent_ratio = _partition_ratio([parent])
    best = None
    best_ratio = None
    for j in available:
        groups = [[0] * n_classes for _ in range(domain_sizes[j])]
        for row, y in zip(rows, labels):
            groups[row[j]][y] += 1
        ratio = _partition_ratio(groups)
        if best_ratio is None or ratio < best_ratio:
            best, best_ratio = j, ratio
    if best_ratio is not None and best_ratio < parent_ratio:
        return best
    return None


def tree(rows, labels, domain_sizes, n_classes, min_samples=2, max_depth=None):
    """Recursive induction on ``best_split``: ("leaf", counts, label) or
    ("split", attribute, children).

    A node is a leaf when it is pure, has fewer than ``min_samples``
    records, sits at ``max_depth``, has no attribute left or no positive
    gain; its label is the most frequent class, ties to the earlier one.
    An empty branch gets its parent's leaf.  No attribute is reused along
    a path.
    """

    def grow(members, available, depth):
        counts = tuple(sum(1 for i in members if labels[i] == c) for c in range(n_classes))
        leaf = ("leaf", counts, min(range(n_classes), key=lambda c: (-counts[c], c)))
        if (sum(1 for c in counts if c) <= 1 or len(members) < min_samples
                or (max_depth is not None and depth >= max_depth) or not available):
            return leaf
        j = best_split([rows[i] for i in members], [labels[i] for i in members],
                       domain_sizes, n_classes, available)
        if j is None:
            return leaf
        rest = [a for a in available if a != j]
        children = []
        for v in range(domain_sizes[j]):
            branch = [i for i in members if rows[i][j] == v]
            children.append(grow(branch, rest, depth + 1) if branch else leaf)
        return ("split", j, tuple(children))

    return grow(list(range(len(rows))), list(range(len(domain_sizes))), 0)


def table_as_tree(model, node=0):
    """A ``TreeModel``'s node table in the nested form ``tree`` returns,
    read from ``node`` down; a leaf's label is its first largest count."""
    attribute = int(model.attribute[node])
    if attribute < 0:
        counts = tuple(model.counts[node].tolist())
        return ("leaf", counts, counts.index(max(counts)))
    kids = model.children[node, : model.domain_sizes[attribute]].tolist()
    return ("split", attribute, tuple(table_as_tree(model, kid) for kid in kids))


def auc_pair_statistic(scores, positive):
    """Mann-Whitney statistic: share of positive/negative pairs ranked
    correctly, ties counting one half."""
    pos = [s for s, flag in zip(scores, positive) if flag]
    neg = [s for s, flag in zip(scores, positive) if not flag]
    total = Fraction(0)
    for p in pos:
        for q in neg:
            if p > q:
                total += 1
            elif p == q:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


def roc_curve(scores, positive):
    """Quadratic ROC sweep: one pass over the records per distinct score,
    highest first.  Returns (points, auc) with the trapezoid area summed
    threshold by threshold."""
    n_pos = sum(1 for flag in positive if flag)
    n_neg = len(scores) - n_pos
    points = [(0.0, 0.0)]
    auc = 0.0
    tp = fp = 0
    for threshold in sorted(set(scores), reverse=True):
        for score, flag in zip(scores, positive):
            if score == threshold:
                if flag:
                    tp += 1
                else:
                    fp += 1
        x, y = fp / n_neg, tp / n_pos
        auc += (x - points[-1][0]) * (y + points[-1][1]) / 2.0
        points.append((x, y))
    return points, auc


def lift_curve(scores, positive):
    """Per-record lift: records by descending score, ties in record order."""
    n = len(scores)
    prevalence = sum(1 for flag in positive if flag) / n
    order = sorted(range(n), key=lambda i: -scores[i])
    points = []
    seen = 0
    for rank, i in enumerate(order, start=1):
        seen += 1 if positive[i] else 0
        points.append((rank / n, (seen / rank) / prevalence))
    return points


def calibration_curve(scores, positive, bins):
    """Per-record binning into right-closed bins (the first keeps 0),
    summing each bin's scores in record order; empty bins omitted."""
    totals = [0] * bins
    hits = [0] * bins
    sums = [0.0] * bins
    for score, flag in zip(scores, positive):
        b = 0 if score <= 0 else min(bins - 1, math.ceil(score * bins) - 1)
        totals[b] += 1
        hits[b] += 1 if flag else 0
        sums[b] += score
    return [(sums[b] / totals[b], hits[b] / totals[b]) for b in range(bins) if totals[b]]
