"""Property tests for UserStore slot reuse and batch operations.

The free-list contract: a live user's id never changes or collides
(the tracker can key on it for the whole session), departed slots
are reclaimed for later arrivals so long runs stop growing the arrays
monotonically, and every derived structure — the arrival-ordered index
caches, the per-chunk owner counts, the peer-supply mirror — stays
consistent with the ground-truth arrays through arbitrary interleavings
of arrivals, completions, holds and departures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vod.user import UserStore

NUM_CHUNKS = 5


def check_invariants(store: UserStore) -> None:
    """Derived state must agree with the ground-truth arrays."""
    idx = store.active_indices()
    # Arrival order: strictly increasing sequence numbers, all active.
    assert np.all(store.active[idx])
    assert np.all(np.diff(store.seq[idx]) > 0)
    assert idx.size == store.num_active
    # Incremental owner counts match a fresh matrix reduction.
    truth = (
        store.owned[idx].sum(axis=0)
        if idx.size
        else np.zeros(NUM_CHUNKS, dtype=np.int64)
    )
    np.testing.assert_array_equal(store.owners_per_chunk(), truth)
    # Peer-supply mirror: column p of the mirror is the p-th active user
    # in arrival order (tombstones are all-False / zero-upload).
    owned_mirror, upload_mirror = store.peer_supply_mirror()
    live_cols = store._col_of[idx]
    np.testing.assert_array_equal(
        owned_mirror[:, live_cols], store.owned[idx].T
    )
    np.testing.assert_array_equal(upload_mirror[live_cols], store.upload[idx])
    dead = np.ones(upload_mirror.size, dtype=bool)
    dead[live_cols] = False
    assert not owned_mirror[:, dead].any()
    assert not upload_mirror[dead].any()


@st.composite
def operation_sequences(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "complete", "hold", "release", "depart"]),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )


class TestFreeListProperties:
    @settings(max_examples=60, deadline=None)
    @given(operation_sequences())
    def test_random_interleavings_keep_invariants(self, ops):
        store = UserStore(NUM_CHUNKS, capacity=2)
        now = 0.0
        live = {}  # uid -> arrival order stamp (for stability checks)
        stamp = 0
        peak_live = 0
        for op, r in ops:
            now += 1.0
            rng = np.random.default_rng(r)
            if op == "add":
                uid = store.add_user(now, int(rng.integers(NUM_CHUNKS)),
                                     float(rng.uniform(0, 100)))
                # A reissued id must come from a departed user, never a
                # live one (uid stability for the tracker).
                assert uid not in live
                live[uid] = stamp
                stamp += 1
            elif live:
                uid = sorted(live)[int(rng.integers(len(live)))]
                if op == "complete":
                    if store.chunk[uid] >= 0:
                        store.complete_chunk(uid, now, bool(rng.integers(2)))
                elif op == "hold":
                    if store.chunk[uid] >= 0:
                        finished = int(store.chunk[uid])
                        store.begin_hold(uid, now + 5.0,
                                         int(rng.integers(NUM_CHUNKS)), finished)
                elif op == "release":
                    for due in store.due_holds(now):
                        store.start_chunk_download(
                            int(due), int(store.hold_next[due]), now
                        )
                elif op == "depart":
                    store.depart(uid)
                    del live[uid]
            peak_live = max(peak_live, len(live))
            check_invariants(store)
        # Slot reclamation: the arrays' high-water mark tracks the peak
        # *concurrent* population (+ growth slack), not total arrivals.
        assert len(store) <= max(peak_live, 1) + store.free_slots

    def test_departed_slot_is_reused(self):
        store = UserStore(3)
        a = store.add_user(0.0, 0, 1.0)
        b = store.add_user(0.0, 1, 2.0)
        store.depart(a)
        c = store.add_user(1.0, 2, 3.0)
        assert c == a  # LIFO free-list reissues the reclaimed slot
        assert len(store) == 2  # no new slot was allocated
        assert store.num_active == 2
        # The reused slot carries none of the departed user's state.
        assert not store.owned[c].any()
        assert store.retrievals[c] == 0
        assert b != c

    def test_uids_stable_while_active(self):
        store = UserStore(3)
        keep = store.add_user(0.0, 0, 1.0)
        store.complete_chunk(keep, 1.0, True)
        for k in range(20):
            uid = store.add_user(float(k), 1, 1.0)
            store.depart(uid)
        # Churn around a long-lived user never disturbs its row.
        assert store.active[keep]
        assert store.owned[keep, 0]
        assert store.chunk[keep] == 0

    def test_batch_add_matches_scalar_adds(self):
        scalar = UserStore(4, capacity=2)
        batch = UserStore(4, capacity=2)
        # Interleave departures so the free-list path is exercised.
        for s in (scalar, batch):
            a = s.add_user(0.0, 0, 1.0)
            b = s.add_user(0.0, 1, 2.0)
            s.depart_many(np.asarray([a, b]))
        starts = np.asarray([2, 0, 3, 1, 2])
        uploads = np.asarray([5.0, 6.0, 7.0, 8.0, 9.0])
        got = batch.add_users(1.0, starts, uploads)
        want = [scalar.add_user(1.0, int(c), float(u))
                for c, u in zip(starts, uploads)]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            scalar.active_indices(), batch.active_indices()
        )
        np.testing.assert_array_equal(
            scalar.seq[: len(scalar)], batch.seq[: len(batch)]
        )
        np.testing.assert_array_equal(
            scalar.upload[: len(scalar)], batch.upload[: len(batch)]
        )

    def test_batch_complete_and_depart_match_scalar(self):
        def build():
            s = UserStore(4)
            uids = [s.add_user(0.0, i % 4, float(i)) for i in range(6)]
            return s, uids

        scalar, uids_s = build()
        batch, uids_b = build()
        smooth = np.asarray([True, False, True, False, True, True])
        for uid, sm in zip(uids_s, smooth):
            scalar.complete_chunk(uid, 10.0, bool(sm))
        batch.complete_chunks(np.asarray(uids_b), 10.0, smooth)
        np.testing.assert_array_equal(scalar.owned[:6], batch.owned[:6])
        np.testing.assert_array_equal(
            scalar.unsmooth_retrievals[:6], batch.unsmooth_retrievals[:6]
        )
        np.testing.assert_array_equal(
            scalar.owners_per_chunk(), batch.owners_per_chunk()
        )
        for uid in uids_s[:3]:
            scalar.depart(uid)
        batch.depart_many(np.asarray(uids_b[:3]))
        np.testing.assert_array_equal(
            scalar.active_indices(), batch.active_indices()
        )
        np.testing.assert_array_equal(
            scalar.owners_per_chunk(), batch.owners_per_chunk()
        )
        assert scalar.free_slots == batch.free_slots

    def test_grant_chunks_updates_derived_state(self):
        store = UserStore(4)
        uid = store.add_user(0.0, 0, 1.0)
        store.grant_chunks(uid, [1, 3])
        np.testing.assert_array_equal(store.owners_per_chunk(), [0, 1, 0, 1])
        store.grant_chunks(uid, np.asarray([True, True, False, True]))
        np.testing.assert_array_equal(store.owners_per_chunk(), [1, 1, 0, 1])
        check_invariants(store)
