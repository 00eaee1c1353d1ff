"""Router tests: consistent hashing, affinity, failover, admission.

End-to-end tests run real sockets — N in-thread replicas behind an
in-thread router — but stay in one process so white-box state (queue
snapshots, replica endpoints) is reachable.  Affinity is asserted two
ways: deterministically against the ring's preference order, and
behaviorally via which replica's queue did the work.
"""

import socket
import threading

import pytest

import repro.service.router as router_module
from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.obs import agg
from repro.runtime import ResultCache, RuntimeOptions
from repro.runtime.serialize import family_fingerprint, spec_to_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import _METHODS, start_in_thread
from repro.service.router import (
    HashRing,
    ReplicaEndpoint,
    start_router_in_thread,
)


def make_spec(bus=9):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
class TestHashRing:
    MEMBERS = ["r0", "r1", "r2"]

    def test_preference_is_deterministic_and_total(self):
        ring = HashRing(self.MEMBERS)
        for key in ("a", "b", "some-fingerprint", ""):
            order = ring.preference(key)
            assert sorted(order) == self.MEMBERS
            assert order == HashRing(self.MEMBERS).preference(key)

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(self.MEMBERS, vnodes=64)
        counts = {member: 0 for member in self.MEMBERS}
        for i in range(300):
            counts[ring.owner(f"key-{i}")] += 1
        # 64 vnodes/member: no member should own almost nothing
        assert min(counts.values()) >= 30

    def test_removing_a_member_only_moves_its_keys(self):
        full = HashRing(self.MEMBERS)
        without_r1 = HashRing(["r0", "r2"])
        for i in range(200):
            key = f"key-{i}"
            if full.owner(key) != "r1":
                assert without_r1.owner(key) == full.owner(key)

    def test_failover_order_matches_shrunk_ring(self):
        # the next preference after a downed owner is that key's owner
        # in a ring without the downed member — so static-membership
        # preference failover behaves like consistent-hash re-homing
        full = HashRing(self.MEMBERS)
        for i in range(100):
            key = f"key-{i}"
            order = full.preference(key)
            survivors = [m for m in self.MEMBERS if m != order[0]]
            assert HashRing(survivors).owner(key) == order[1]

    def test_rejects_empty_membership(self):
        with pytest.raises(ValueError):
            HashRing([])


# ----------------------------------------------------------------------
# end-to-end: router over in-thread replicas
# ----------------------------------------------------------------------
@pytest.fixture
def cluster(tmp_path):
    """3 in-thread replicas sharing a disk cache tier, one router."""
    cache_dir = tmp_path / "shared-cache"
    handles = {}
    endpoints = []
    for index in range(3):
        replica_id = f"r{index}"
        handle = start_in_thread(
            options=RuntimeOptions(jobs=1, cache=ResultCache(directory=cache_dir)),
            replica_id=replica_id,
        )
        handles[replica_id] = handle
        endpoints.append(
            ReplicaEndpoint(replica_id=replica_id, host="127.0.0.1", port=handle.port)
        )
    router = start_router_in_thread(endpoints)
    client = ServiceClient(port=router.port)
    client.wait_until_ready()
    yield router, handles, client
    router.request_shutdown()
    router.join(timeout=10.0)
    for handle in handles.values():
        handle.request_shutdown()
        handle.join(timeout=10.0)


class TestRouting:
    def test_health_reports_cluster(self, cluster):
        _, handles, client = cluster
        health = client.health()
        assert health["role"] == "router"
        assert health["status"] == "ok"
        assert health["replicas"] == {rid: True for rid in handles}

    def test_clusterz_topology(self, cluster):
        router, handles, client = cluster
        topology = client._request("GET", "/clusterz")
        assert [r["replica_id"] for r in topology["replicas"]] == sorted(handles)
        assert topology["ring"]["members"] == sorted(handles)
        assert topology["ring"]["vnodes"] == 64

    def test_submission_lands_on_ring_owner(self, cluster):
        router, handles, client = cluster
        spec = make_spec()
        owner = router.app.ring.owner(family_fingerprint(spec))
        job = client.verify(spec, timeout=60)
        assert job["state"] == "done"
        assert job["result"]["outcome"] == "sat"
        assert job["replica"] == owner
        # the owning replica's queue did the work; the others are idle
        assert handles[owner].app.queue.snapshot()["done"] == 1
        for rid, handle in handles.items():
            if rid != owner:
                assert handle.app.queue.snapshot()["done"] == 0

    def test_family_affinity_across_probes(self, cluster):
        router, handles, client = cluster
        # same family (different goal targets) -> same replica, every time
        replicas_seen = set()
        for bus in (3, 6, 9):
            job = client.verify(make_spec(bus), timeout=60)
            replicas_seen.add(job["replica"])
        assert len(replicas_seen) == 1
        assert replicas_seen == {router.app.ring.owner(family_fingerprint(make_spec()))}

    def test_job_poll_follows_owner(self, cluster):
        _, _, client = cluster
        job = client.submit_verify(make_spec())
        terminal = client.wait(job["id"], timeout=60)
        assert terminal["state"] == "done"
        assert terminal["replica"] == job["replica"]

    def test_statsz_aggregates_replicas(self, cluster):
        _, handles, client = cluster
        client.verify(make_spec(), timeout=60)
        stats = client.stats()
        assert stats["role"] == "router"
        assert set(stats["replicas"]) == set(handles)
        for rid, replica_stats in stats["replicas"].items():
            assert replica_stats["replica"] == rid
        assert stats["counters"]["forwarded"] >= 1

    def test_incidents_have_one_home(self, cluster):
        _, _, client = cluster
        incident = {
            "id": "inc-1",
            "kind": "detector_alarm",
            "severity": "minor",
            "tick": 1,
            "detector": "chi_square",
        }
        posted = client.post_incident(incident)
        assert posted["stored"] == 1
        listed = client.incidents()
        assert listed["count"] == 1
        assert listed["replica"] == posted["replica"]


class TestFailover:
    def test_kill_owner_fails_over_and_shared_cache_answers(self, cluster):
        router, handles, client = cluster
        spec = make_spec()
        preference = router.app.ring.preference(family_fingerprint(spec))
        first = client.verify(spec, timeout=60)
        assert first["replica"] == preference[0]

        # owner dies (graceful here; the connection-refused path is the
        # same either way once the socket is gone)
        handles[preference[0]].request_shutdown()
        handles[preference[0]].join(timeout=10.0)

        second = client.verify(spec, timeout=60)
        assert second["replica"] == preference[1]
        # bit-identical answer, served from the shared disk tier
        assert second["result"]["outcome"] == first["result"]["outcome"]
        assert second["result"]["attack"] == first["result"]["attack"]
        survivor_cache = handles[preference[1]].app.options.cache
        assert survivor_cache.snapshot()["disk_hits"] >= 1

        # the router noticed the death
        topology = client._request("GET", "/clusterz")
        alive = {r["replica_id"]: r["alive"] for r in topology["replicas"]}
        assert alive[preference[0]] is False
        assert topology["counters"]["failovers"] >= 1

    def test_owner_already_marked_down_counts_one_failover(self, cluster):
        router, handles, client = cluster
        spec = make_spec()
        preference = router.app.ring.preference(family_fingerprint(spec))
        # the supervisor's poll saw the owner exit before any forward did
        handles[preference[0]].request_shutdown()
        handles[preference[0]].join(timeout=10.0)
        router.app.replicas[preference[0]].alive = False

        job = client.verify(spec, timeout=60)
        assert job["replica"] == preference[1]
        topology = client._request("GET", "/clusterz")
        assert topology["counters"]["failovers"] == 1

    def test_all_replicas_down_is_structured_503(self, cluster):
        router, handles, client = cluster
        for handle in handles.values():
            handle.request_shutdown()
            handle.join(timeout=10.0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_verify(make_spec())
        assert excinfo.value.status == 503
        assert excinfo.value.payload["code"] == "no_replicas"


class TestAdmissionAndErrors:
    def test_unknown_replica_pin_is_structured_503(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/jobs/any-id?replica=r99")
        assert excinfo.value.status == 503
        assert excinfo.value.payload["code"] == "unknown_replica"

    def test_pinned_replica_is_honored(self, cluster):
        _, _, client = cluster
        # pin a submission to an explicit replica, bypassing the ring
        job = client._request(
            "POST", "/v1/verify?replica=r1", {"spec": spec_to_payload(make_spec())}
        )
        assert job["replica"] == "r1"

    def test_router_inflight_cap_is_429_queue_full(self, cluster):
        router, _, client = cluster
        router.app.max_inflight = 0
        rejected = router.app.counters["rejected"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit_verify(make_spec())
        assert excinfo.value.status == 429
        assert excinfo.value.payload["code"] == "queue_full"
        # one 429, counted once
        assert router.app.counters["rejected"] == rejected + 1

    def test_draining_router_rejects_submissions(self, cluster):
        router, _, client = cluster
        router.app.draining = True
        with pytest.raises(ServiceError) as excinfo:
            client.submit_verify(make_spec())
        assert excinfo.value.status == 503
        assert excinfo.value.payload["code"] == "draining"
        # polling still answers
        assert client._request("GET", "/clusterz")["draining"] is True

    def test_unknown_job_is_structured_404(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404

    def test_unknown_path_is_structured_404(self, cluster):
        _, _, client = cluster
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/everything")
        assert excinfo.value.status == 404
        assert excinfo.value.payload["code"] == "not_found"

    def test_wrong_method_is_structured_405_like_a_replica(self, cluster):
        _, _, client = cluster
        for method, path in (
            ("POST", "/statsz"),
            ("POST", "/healthz"),
            ("POST", "/clusterz"),
            ("GET", "/v1/verify"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request(method, path, {} if method == "POST" else None)
            assert excinfo.value.status == 405, (method, path)
            assert excinfo.value.payload["code"] == "bad_request"
            assert excinfo.value.payload["error"].startswith("use ")

    def test_request_metric_labels_are_bounded(self, cluster):
        _, _, client = cluster
        for job_id in ("a1", "b2"):
            with pytest.raises(ServiceError):
                client.job(job_id)
        with pytest.raises(ServiceError):
            client._request("GET", "/no/such/path")
        families = agg.parse_text(client.metrics_text())
        paths = {
            sample.label("path")
            for sample in families["repro_router_requests_total"].samples
        }
        assert {"/v1/jobs/:id", "other"} <= paths
        assert paths <= set(_METHODS) | {"other"}


class SilentReplica:
    """A listening socket nobody accepts on: connections complete in the
    kernel backlog, and requests written to them are never answered."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]

    def connections(self):
        """Drain the backlog; returns how many connections arrived."""
        self.sock.setblocking(False)
        count = 0
        while True:
            try:
                connection, _ = self.sock.accept()
            except BlockingIOError:
                return count
            connection.close()
            count += 1


class TestSlowReplica:
    def test_timeout_is_502_without_marking_down_or_resending(self, monkeypatch):
        monkeypatch.setattr(router_module, "_FORWARD_TIMEOUT", 0.3)
        spec = make_spec()
        owner, other = HashRing(["r0", "r1"]).preference(family_fingerprint(spec))
        slow, spare = SilentReplica(), SilentReplica()
        router = start_router_in_thread(
            [
                ReplicaEndpoint(replica_id=owner, host="127.0.0.1", port=slow.port),
                ReplicaEndpoint(replica_id=other, host="127.0.0.1", port=spare.port),
            ]
        )
        try:
            client = ServiceClient(port=router.port)
            for path in ("/v1/verify", f"/v1/verify?replica={owner}"):
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", path, {"spec": spec_to_payload(spec)})
                assert excinfo.value.status == 502, path
                assert excinfo.value.payload["code"] == "replica_error"
            topology = client._request("GET", "/clusterz")
            alive = {r["replica_id"]: r["alive"] for r in topology["replicas"]}
            assert alive == {owner: True, other: True}
            assert topology["counters"]["failovers"] == 0
            assert slow.connections() == 2
            assert spare.connections() == 0
        finally:
            router.request_shutdown()
            router.join(timeout=10.0)
            slow.sock.close()
            spare.sock.close()
        assert not router.thread.is_alive()


class TestConcurrentSweep:
    def test_sweep_spreads_families_and_matches_owners(self, cluster):
        router, _, client = cluster
        # distinct epsilon values are distinct families: deterministic
        # spread across the ring
        variants = [("1/100", 3), ("1/200", 6), ("1/300", 9), ("1/400", 4)]
        results = {}
        errors = []

        def probe(eps, bus):
            try:
                results[(eps, bus)] = client.verify(
                    make_spec(bus), epsilon=eps, timeout=60
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=probe, args=variant) for variant in variants
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90.0)
        assert not errors
        assert len(results) == len(variants)
        from fractions import Fraction

        for (eps, bus), job in results.items():
            assert job["state"] == "done"
            expected = router.app.ring.owner(
                family_fingerprint(make_spec(bus), epsilon=Fraction(eps))
            )
            assert job["replica"] == expected
