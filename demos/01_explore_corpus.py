"""
Exploring the embedded election survey
======================================

Loads the packaged 100-record survey, prints the class balance, and
ranks the nine attributes by how much label information each carries.
"""

import math

from turnout import class_counts, crosstab, load_election_corpus


def entropy(counts):
    """Shannon entropy of a class distribution, in bits."""
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c)


def info_gain(data, name):
    """Label entropy less the record-weighted entropy left after splitting
    on one attribute.  The tree grows by this score, compared exactly."""
    table = crosstab(data, name).tolist()
    return entropy(class_counts(data)) - sum(
        sum(row) / data.n * entropy(row) for row in table if sum(row)
    )


data = load_election_corpus()

# the class balance is heavily skewed toward participation
print(f"{data.n} records, {len(data.schema.features)} categorical attributes")
for label, count in zip(data.schema.class_labels, class_counts(data)):
    print(f"  {label}: {count}")

# parent entropy: how mixed the labels are before any split
print(f"\nlabel entropy: {entropy(class_counts(data)):.4f} bits")

# rank attributes by information gain; the winner is the tree's root
print("\ninformation gain per attribute:")
ranked = sorted(
    data.schema.feature_names, key=lambda name: info_gain(data, name), reverse=True
)
for name in ranked:
    print(f"  {info_gain(data, name):.4f}  {name}")

# a crosstab shows how one attribute's values spread over the classes
print("\nAge by participation:")
table = crosstab(data, "Age")
attr = data.schema.features[data.schema.feature_index("Age")]
for value, row in zip(attr.values, table):
    cells = "  ".join(f"{c:3d}" for c in row)
    print(f"  {value:>6}: {cells}")
