"""Tests for repro.vod.delivery."""

import numpy as np
import pytest

from repro.vod.delivery import ClientServerDelivery, P2PDelivery
from repro.vod.user import UserStore

R = 10e6 / 8.0


def store_with(downloads, owners=(), uploads=100_000.0, num_chunks=4):
    """Build a store: ``downloads`` is a list of chunk indices (one per
    user); ``owners`` is a list of (user_index, owned_chunk) pairs."""
    store = UserStore(num_chunks)
    ids = [store.add_user(0.0, c, uploads) for c in downloads]
    for user_index, chunk in owners:
        store.grant_chunks(ids[user_index], chunk)
    return store, ids


class TestClientServer:
    def test_equal_share(self):
        store, _ = store_with([0, 0])
        delivery = ClientServerDelivery(user_cap=R)
        capacity = np.array([1.0e6, 0.0, 0.0, 0.0])
        outcome = delivery.allocate(store, capacity)
        assert outcome.per_user_rates[0] == pytest.approx(0.5e6)
        assert outcome.cloud_used == pytest.approx(1.0e6)
        assert outcome.peer_used == 0.0

    def test_user_cap_binds(self):
        store, _ = store_with([0])
        delivery = ClientServerDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.array([10 * R, 0, 0, 0]))
        assert outcome.per_user_rates[0] == pytest.approx(R)
        assert outcome.cloud_used == pytest.approx(R)

    def test_shortfall_measured(self):
        store, _ = store_with([0, 0])
        delivery = ClientServerDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.array([R, 0, 0, 0]))
        assert outcome.cloud_shortfall == pytest.approx(R)

    def test_idle_chunks_unused(self):
        store, _ = store_with([1])
        delivery = ClientServerDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.array([R, R, R, R]))
        assert outcome.cloud_used == pytest.approx(R)

    def test_capacity_shape_checked(self):
        store, _ = store_with([0])
        with pytest.raises(ValueError):
            ClientServerDelivery(R).allocate(store, np.zeros(3))


class TestP2P:
    def test_peers_serve_before_cloud(self):
        # User 1 owns chunk 0 and has plenty of upload; user 0 downloads it.
        store, ids = store_with([0, 1], owners=[(1, 0)], uploads=R)
        delivery = P2PDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.array([R, R, 0, 0]))
        # Chunk 0's downloader is served by the peer, not the cloud.
        assert outcome.peer_used >= R - 1e-6
        # Cloud only serves chunk 1's downloader (nobody owns chunk 1).
        assert outcome.cloud_used == pytest.approx(R)

    def test_no_owners_falls_back_to_cloud(self):
        store, _ = store_with([0])
        delivery = P2PDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.array([R, 0, 0, 0]))
        assert outcome.peer_used == 0.0
        assert outcome.cloud_used == pytest.approx(R)

    def test_peer_upload_is_shared_across_chunks(self):
        # One owner of both chunks with limited upload; two downloaders.
        store, ids = store_with(
            [0, 1, 2], owners=[(2, 0), (2, 1)], uploads=0.0
        )
        store.upload[ids[2]] = 100_000.0  # the only uploader
        delivery = P2PDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.zeros(4))
        # Peer can give at most its upload capacity in total.
        assert outcome.peer_used <= 100_000.0 + 1e-6

    def test_rarest_chunk_served_first(self):
        # Chunk 0 has one owner, chunk 1 has two owners; the single
        # uploader's capacity must go to chunk 0 first.
        store = UserStore(4)
        d0 = store.add_user(0.0, 0, 0.0)  # downloads rare chunk 0
        d1 = store.add_user(0.0, 1, 0.0)  # downloads chunk 1
        up = store.add_user(0.0, 2, 50_000.0)  # owns both
        o2 = store.add_user(0.0, 3, 0.0)  # extra owner of chunk 1 (no upload)
        store.grant_chunks(up, [0, 1])
        store.grant_chunks(o2, 1)
        delivery = P2PDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.zeros(4))
        # All 50 KB/s go to chunk 0 (rarest: 1 owner vs 2).
        assert outcome.per_user_rates[0] == pytest.approx(50_000.0)
        assert outcome.per_user_rates[1] == pytest.approx(0.0)

    def test_cloud_tops_up_shortfall(self):
        store, ids = store_with([0], owners=[], uploads=0.0)
        # Give one owner with tiny upload.
        owner = store.add_user(0.0, 1, 10_000.0)
        store.grant_chunks(owner, 0)
        delivery = P2PDelivery(user_cap=R)
        outcome = delivery.allocate(store, np.array([R, 0, 0, 0]))
        assert outcome.peer_used == pytest.approx(10_000.0)
        assert outcome.cloud_used == pytest.approx(R - 10_000.0)

    def test_empty_store(self):
        store = UserStore(4)
        outcome = P2PDelivery(R).allocate(store, np.zeros(4))
        assert outcome.cloud_used == 0.0
        assert outcome.peer_used == 0.0
