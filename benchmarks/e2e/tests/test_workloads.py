import json

import workloads
from checks import load_expected


def generated(seed, passes=6):
    for workload in workloads.WORKLOADS.values():
        for index in range(passes):
            yield from workloads.flatten(workload.make_pass(seed, index))


def test_same_seed_same_inputs_and_seeds_differ():
    for workload in workloads.WORKLOADS.values():
        assert workload.make_pass(3, 1) == workload.make_pass(3, 1)
    assert workloads.serve_pass(1, 0) != workloads.serve_pass(2, 0)
    assert workloads.casestudy_pass(1, 0) != workloads.casestudy_pass(2, 0)
    assert workloads.cli_pass(1, 0) != workloads.cli_pass(2, 0)


def test_serve_pass_mix_is_exact():
    for seed in range(1, 6):
        for index in range(3):
            clients = workloads.serve_pass(seed, index)
            assert [len(c) for c in clients] == [workloads.SERVE_PER_CLIENT] * 2
            ordered = [p for pair in zip(*clients) for p in pair]
            synth = [p for p in ordered if p["op"] == "synthesize"]
            keys = [workloads.request_key(p) for p in ordered if p["op"] == "verify"]
            first_seen = {}
            for position, key in enumerate(keys):
                first_seen.setdefault(key, position)
            repeats = len(keys) - len(first_seen)
            assert len(synth) == 1 and repeats == 5


def test_seeded_choices_rotate_so_runs_share_one_mix():
    for seed in range(1, 6):
        # four passes leave out each cheapest-attack state once
        searches = [
            p["target"]
            for index in range(4)
            for p in workloads.casestudy_pass(seed, index)
            if p["op"] == "mincost"
        ]
        assert sorted(searches) == sorted(workloads.MINCOST_TARGETS * 3)
        for budget in workloads.SERVE_BUDGETS:
            sequence = workloads.serve_fresh_sequence(seed, budget)
            keys = sorted(workloads.request_key(p) for p in sequence)
            pool = workloads.serve_fresh_pool(budget)
            assert keys == sorted(workloads.request_key(p) for p in pool)
            block = len(workloads.SERVE_TARGETS)
            for start in range(0, len(sequence), block):
                targets = {p["target"] for p in sequence[start : start + block]}
                assert targets == set(workloads.SERVE_TARGETS)


def test_every_generated_request_has_a_golden_verdict():
    expected = load_expected()
    pool = {workloads.request_key(p) for p in workloads.all_requests()}
    assert pool == set(expected)
    for seed in range(1, 21):
        for params in generated(seed):
            assert workloads.request_key(params) in pool, params


def test_cli_spec_files_are_distinct():
    names = [workloads.spec_file_name(p) for p in workloads.cli_spec_requests(False)]
    assert len(names) == len(set(names))
    for params in generated(1):
        if params.get("entry") == "cli":
            assert workloads.spec_file_name(params) in names
    assert json.loads(workloads.request_key({"b": 1, "a": 2})) == {"a": 2, "b": 1}
