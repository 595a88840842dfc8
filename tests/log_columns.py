"""Listening-log columns for tests, from plain records."""

import numpy as np

from cfdistill.als import Interactions


def interactions(records):
    """``Interactions`` for ``(user_id, item_id, count)`` tuples, ids coded in
    order of first appearance (as ``parse_log_file`` codes them)."""
    user_index: dict = {}
    item_index: dict = {}
    users, items, counts = [], [], []
    for user_id, item_id, count in records:
        users.append(user_index.setdefault(user_id, len(user_index)))
        items.append(item_index.setdefault(item_id, len(item_index)))
        counts.append(count)
    return Interactions(
        list(user_index), list(item_index), np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64), np.array(counts, dtype=np.int64),
    )
