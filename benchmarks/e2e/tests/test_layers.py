import asyncio
import sys
import textwrap
import types

import pytest

from layers import TARGETS, Recorder, Target, request_id, summarize

SOURCE = textwrap.dedent(
    """
    def work(x):
        return x * 2

    class Engine:
        def run(self, x):
            return work(x) + 1

        async def serve(self, x):
            return self.run(x)
    """
)
USER = textwrap.dedent(
    """
    from e2e_fake_source import work
    alias = work

    def call(x):
        return work(x)
    """
)


@pytest.fixture
def fake_modules():
    source = types.ModuleType("e2e_fake_source")
    sys.modules[source.__name__] = source
    exec(SOURCE, source.__dict__)
    user = types.ModuleType("e2e_fake_user")
    sys.modules[user.__name__] = user
    exec(USER, user.__dict__)
    yield source, user
    del sys.modules[source.__name__], sys.modules[user.__name__]


def test_identity_patch_install_and_uninstall(fake_modules):
    source, user = fake_modules
    work, run, serve = source.work, source.Engine.run, source.Engine.__dict__["serve"]
    targets = (
        Target("fake.work", "e2e_fake_source", "work"),
        Target("fake.run", "e2e_fake_source", "Engine.run"),
        Target("fake.serve", "e2e_fake_source", "Engine.serve"),
    )
    recorder = Recorder()
    recorder.install(targets)
    try:
        # every binding of the same function object is replaced
        assert source.work is not work
        assert user.work is source.work and user.alias is source.work
        token = request_id.set("r1")
        assert user.call(2) == 4
        assert source.Engine().run(1) == 3
        assert asyncio.run(source.Engine().serve(1)) == 3
        request_id.reset(token)
        with pytest.raises(RuntimeError):
            recorder.install(targets)
    finally:
        recorder.uninstall()
    assert source.work is work and user.work is work and user.alias is work
    assert source.Engine.run is run and source.Engine.__dict__["serve"] is serve

    layers = [s["layer"] for s in recorder.spans]
    assert layers == ["fake.work", "fake.work", "fake.run", "fake.work", "fake.run", "fake.serve"]
    by_id = {s["id"]: s for s in recorder.spans}
    nested_work = recorder.spans[1]
    assert by_id[nested_work["parent"]]["layer"] == "fake.run"
    assert by_id[recorder.spans[4]["parent"]]["layer"] == "fake.serve"
    assert {s["request"] for s in recorder.spans} == {"r1"}
    # uninstalled: calls record nothing more
    user.call(1)
    assert len(recorder.spans) == 6


def test_program_targets_resolve_and_record_a_verification():
    import repro.runtime.executor as executor
    from repro.core import verification
    from repro.core.spec import AttackGoal, AttackSpec
    from repro.grid import cases

    original = verification.verify_attack
    recorder = Recorder()
    recorder.install(TARGETS)
    try:
        # bound by `from ... import` in the runtime: patched there too
        assert executor.verify_attack is verification.verify_attack
        assert verification.verify_attack is not original
        spec = AttackSpec.default(cases.load_case("ieee14"), goal=AttackGoal.states(9))
        assert verification.verify_attack(spec).attack_exists
    finally:
        recorder.uninstall()
    assert verification.verify_attack is original and executor.verify_attack is original

    summary = summarize(recorder.spans)
    assert summary.count("grid.load") >= 1
    assert summary.count("core.verify") == 1
    assert summary.count("core.encode") == 1
    assert summary.count("smt.check") == 1
    assert summary.counter("smt.check", "decisions") > 0
