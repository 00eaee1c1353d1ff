"""The parallel verification runtime.

Makes every multi-instance workload in the reproduction parallel and
memoized:

* :mod:`repro.runtime.executor` — process-pool fan-out for batches of
  independent verification/synthesis instances, with per-task timeouts
  and an in-process fallback at ``jobs=1`` (one synthesis against
  several specs runs in-process, in :mod:`repro.core.synthesis`);
* :mod:`repro.runtime.portfolio` — portfolio racing on a single
  instance: N diversified SMT configurations cooperating through
  learned-clause exchange (first conclusive answer wins, losers are
  cancelled);
* :mod:`repro.runtime.cache` — a memoizing result cache (in-memory LRU
  plus optional on-disk JSON store) keyed by canonical spec
  fingerprints;
* :mod:`repro.runtime.serialize` — compact, canonical, picklable
  payloads for specs, attack vectors and results.
"""

from repro.runtime.cache import CacheStats, ResultCache, default_cache_dir
from repro.runtime.executor import (
    HAS_TASK_TIMEOUTS,
    RuntimeOptions,
    clear_session_registry,
    session_registry_stats,
    synthesize_many,
    verify_many,
    verify_one,
)
from repro.runtime.portfolio import (
    parse_portfolio_mode,
    race_configs,
    replay_config_solo,
)
from repro.runtime.serialize import (
    attack_from_payload,
    attack_to_payload,
    canonical_json,
    family_fingerprint,
    family_spec,
    payload_to_spec,
    result_from_payload,
    result_to_payload,
    spec_fingerprint,
    spec_to_payload,
)

__all__ = [
    "CacheStats",
    "HAS_TASK_TIMEOUTS",
    "ResultCache",
    "RuntimeOptions",
    "attack_from_payload",
    "attack_to_payload",
    "canonical_json",
    "clear_session_registry",
    "default_cache_dir",
    "family_fingerprint",
    "family_spec",
    "parse_portfolio_mode",
    "payload_to_spec",
    "race_configs",
    "replay_config_solo",
    "result_from_payload",
    "result_to_payload",
    "session_registry_stats",
    "spec_fingerprint",
    "spec_to_payload",
    "synthesize_many",
    "verify_many",
    "verify_one",
]
