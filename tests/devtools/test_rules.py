"""Per-rule fire/quiet tests: one positive and one negative per rule.

Each case lints a synthetic module through :func:`lint_source` with the
single rule under test selected, so a failure names the exact rule and
the exact construct that regressed.
"""

import textwrap

from repro.devtools.lint.engine import lint_source
from repro.devtools.lint.rules import REGISTRY


def run_rule(rule_id: str, source: str, path: str = "src/repro/example.py"):
    findings, _ = lint_source(
        textwrap.dedent(source), path, [REGISTRY[rule_id]()]
    )
    return findings


class TestPFM001LegacyRandom:
    def test_flags_legacy_numpy_module_api(self):
        findings = run_rule(
            "PFM001",
            """
            import numpy as np

            def draw():
                return np.random.normal(0.0, 1.0)
            """,
        )
        assert [f.rule for f in findings] == ["PFM001"]
        assert "np.random.normal" in findings[0].message

    def test_flags_or_default_rng_fallback(self):
        findings = run_rule(
            "PFM001",
            """
            import numpy as np

            def fit(rng=None):
                rng = rng or np.random.default_rng(0)
                return rng
            """,
        )
        assert len(findings) == 1
        assert "ensure_rng" in findings[0].message

    def test_flags_default_rng_parameter_default(self):
        findings = run_rule(
            "PFM001",
            """
            import numpy as np

            def fit(rng=np.random.default_rng(0)):
                return rng
            """,
        )
        assert len(findings) == 1

    def test_flags_stdlib_random_module(self):
        findings = run_rule(
            "PFM001",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert len(findings) == 1

    def test_quiet_on_explicit_generator_and_constructors(self):
        findings = run_rule(
            "PFM001",
            """
            import numpy as np

            def fit(rng):
                local = np.random.default_rng(rng.integers(0, 2**63))
                return local.normal(0.0, 1.0)
            """,
        )
        assert findings == []

    def test_quiet_on_seeded_stdlib_random_instance(self):
        # random.Random(seed) is the sanctioned fix, not the fault.
        findings = run_rule(
            "PFM001",
            """
            import random

            def jitter(key):
                return random.Random(hash(key)).random()
            """,
        )
        assert findings == []


class TestPFM002WallClock:
    SIM_PATH = "src/repro/simulator/engine.py"

    def test_flags_perf_counter_in_simulator(self):
        findings = run_rule(
            "PFM002",
            """
            import time

            def step():
                return time.perf_counter()
            """,
            path=self.SIM_PATH,
        )
        assert [f.rule for f in findings] == ["PFM002"]

    def test_flags_datetime_now_in_telemetry(self):
        findings = run_rule(
            "PFM002",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            path="src/repro/telemetry/hub.py",
        )
        assert len(findings) == 1

    def test_quiet_outside_sim_scope(self):
        findings = run_rule(
            "PFM002",
            """
            import time

            def step():
                return time.perf_counter()
            """,
            path="src/repro/fleet/runner.py",
        )
        assert findings == []

    def test_quiet_on_engine_clock(self):
        findings = run_rule(
            "PFM002",
            """
            def step(engine):
                return engine.now
            """,
            path=self.SIM_PATH,
        )
        assert findings == []


class TestPFM003FloatEquality:
    def test_flags_float_literal_equality(self):
        findings = run_rule("PFM003", "ok = value == 0.5\n")
        assert [f.rule for f in findings] == ["PFM003"]

    def test_flags_not_equal(self):
        findings = run_rule("PFM003", "bad = reading != 0.0\n")
        assert len(findings) == 1

    def test_quiet_on_integer_and_comparisons(self):
        findings = run_rule(
            "PFM003",
            """
            a = count == 0
            b = value < 0.5
            c = value >= 1.0
            """,
        )
        assert findings == []


class TestPFM004UnorderedIteration:
    def test_flags_for_over_set_literal(self):
        findings = run_rule(
            "PFM004",
            """
            def emit(out):
                for name in {"b", "a"}:
                    out.append(name)
            """,
        )
        assert [f.rule for f in findings] == ["PFM004"]

    def test_flags_list_of_set_call(self):
        findings = run_rule("PFM004", "names = list(set(rows))\n")
        assert len(findings) == 1

    def test_flags_join_over_set(self):
        findings = run_rule("PFM004", "text = ', '.join({'a', 'b'})\n")
        assert len(findings) == 1

    def test_quiet_when_sorted(self):
        findings = run_rule(
            """PFM004""",
            """
            def emit(rows):
                return [name for name in sorted(set(rows))]
            """,
        )
        assert findings == []

    def test_quiet_for_set_comprehension_result(self):
        # The result is a set anyway; generator order cannot leak out.
        findings = run_rule("PFM004", "uniq = {n for n in set(rows)}\n")
        assert findings == []


class TestPFM005MutableDefault:
    def test_flags_list_literal_default(self):
        findings = run_rule(
            "PFM005",
            """
            def record(value, log=[]):
                log.append(value)
            """,
        )
        assert [f.rule for f in findings] == ["PFM005"]

    def test_flags_dict_call_default(self):
        findings = run_rule(
            "PFM005",
            """
            def record(value, *, cache=dict()):
                cache[value] = True
            """,
        )
        assert len(findings) == 1

    def test_quiet_on_none_and_immutable_defaults(self):
        findings = run_rule(
            "PFM005",
            """
            def record(value, log=None, label="x", limit=3, pair=(1, 2)):
                log = [] if log is None else log
            """,
        )
        assert findings == []


class TestPFM006UnpicklableCallable:
    def test_flags_lambda_to_run_fleet(self):
        findings = run_rule(
            "PFM006",
            """
            def launch(specs):
                return run_fleet(specs, runner=lambda spec: spec)
            """,
        )
        assert [f.rule for f in findings] == ["PFM006"]

    def test_flags_nested_function_to_submit(self):
        findings = run_rule(
            "PFM006",
            """
            def launch(pool, spec):
                def worker(s):
                    return s
                return pool.submit(worker, spec)
            """,
        )
        assert len(findings) == 1

    def test_quiet_for_parent_side_progress_callback(self):
        # progress= callbacks run in the parent and are never pickled.
        findings = run_rule(
            "PFM006",
            """
            def launch(specs):
                return run_fleet(specs, progress=lambda done, total, r: None)
            """,
        )
        assert findings == []

    def test_quiet_for_module_level_function(self):
        findings = run_rule(
            "PFM006",
            """
            def worker(spec):
                return spec

            def launch(pool, spec):
                return pool.submit(worker, spec)
            """,
        )
        assert findings == []


class TestPFM007FrozenSpecMutation:
    def test_flags_setattr_outside_constructor(self):
        findings = run_rule(
            "PFM007",
            """
            def retune(spec):
                object.__setattr__(spec, "seed", 7)
            """,
        )
        assert [f.rule for f in findings] == ["PFM007"]

    def test_flags_field_assignment_on_runspec(self):
        findings = run_rule(
            "PFM007",
            """
            def retune():
                spec = RunSpec(seed=1)
                spec.seed = 2
                return spec
            """,
        )
        assert len(findings) == 1

    def test_flags_a_nested_function_assignment_once(self):
        findings = run_rule(
            "PFM007",
            """
            def outer():
                def inner():
                    spec = RunSpec()
                    spec.seed = 2
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("PFM007", 5)]

    def test_flags_an_assignment_to_an_enclosing_functions_spec(self):
        findings = run_rule(
            "PFM007",
            """
            def outer():
                spec = RunSpec()

                def inner():
                    spec.seed = 2
            """,
        )
        assert len(findings) == 1

    def test_flags_locally_defined_frozen_dataclass(self):
        findings = run_rule(
            "PFM007",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Point:
                x: int

            def nudge():
                p = Point(x=1)
                p.x = 2
            """,
        )
        assert len(findings) == 1

    def test_quiet_in_post_init_and_replace(self):
        findings = run_rule(
            "PFM007",
            """
            import dataclasses

            class Spec:
                def __post_init__(self):
                    object.__setattr__(self, "seed", 0)

            def retune():
                spec = RunSpec(seed=1)
                return dataclasses.replace(spec, seed=2)
            """,
        )
        assert findings == []


class TestPFM008AllDrift:
    def test_flags_unbound_export(self):
        findings = run_rule(
            "PFM008",
            """
            __all__ = ["missing"]
            """,
        )
        assert [f.rule for f in findings] == ["PFM008"]
        assert "missing" in findings[0].message

    def test_flags_duplicate_entry(self):
        findings = run_rule(
            "PFM008",
            """
            __all__ = ["f", "f"]

            def f():
                return 1
            """,
        )
        assert any("duplicate" in f.message for f in findings)

    def test_flags_public_name_not_listed(self):
        findings = run_rule(
            "PFM008",
            """
            __all__ = ["f"]

            def f():
                return 1

            def stray():
                return 2
            """,
        )
        assert any("stray" in f.message for f in findings)

    def test_quiet_with_lazy_getattr(self):
        # Lazy re-export modules bind names only on first access.
        findings = run_rule(
            "PFM008",
            """
            __all__ = ["Engine"]

            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        assert findings == []

    def test_quiet_when_in_sync(self):
        findings = run_rule(
            "PFM008",
            """
            __all__ = ["f", "CONST"]

            CONST = 3

            def f():
                return CONST

            def _private():
                return 0
            """,
        )
        assert findings == []

    def test_quiet_without_all(self):
        findings = run_rule("PFM008", "def f():\n    return 1\n")
        assert findings == []


class TestPFM009SwallowedException:
    def test_flags_bare_pass_handler(self):
        findings = run_rule(
            "PFM009",
            """
            def probe(cache):
                try:
                    return cache.get("k")
                except Exception:
                    pass
            """,
        )
        assert [f.rule for f in findings] == ["PFM009"]
        assert "swallows" in findings[0].message

    def test_flags_bare_except_with_continue(self):
        findings = run_rule(
            "PFM009",
            """
            def drain(items):
                out = []
                for item in items:
                    try:
                        out.append(item())
                    except:
                        continue
                return out
            """,
        )
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    def test_flags_broad_tuple_handler(self):
        findings = run_rule(
            "PFM009",
            """
            def probe(fn):
                try:
                    fn()
                except (ValueError, Exception):
                    pass
            """,
        )
        assert len(findings) == 1

    def test_quiet_when_narrow(self):
        findings = run_rule(
            "PFM009",
            """
            def probe(fn):
                try:
                    fn()
                except ValueError:
                    pass
            """,
        )
        assert findings == []

    def test_quiet_when_logged_or_recorded(self):
        findings = run_rule(
            "PFM009",
            """
            def probe(fn, log, errors):
                try:
                    fn()
                except Exception as exc:
                    log.warning("probe failed: %s", exc)
                try:
                    fn()
                except Exception as exc:
                    errors.append(exc)
                try:
                    fn()
                except Exception:
                    raise
            """,
        )
        assert findings == []

    def test_quiet_when_fallback_assigned(self):
        findings = run_rule(
            "PFM009",
            """
            def probe(fn):
                try:
                    value = fn()
                except Exception:
                    value = None
                return value
            """,
        )
        assert findings == []

    def test_inline_suppression_with_reason(self):
        findings = run_rule(
            "PFM009",
            """
            def probe(fn):
                try:
                    fn()
                except Exception:  # pfmlint: disable=PFM009 -- best effort
                    pass
            """,
        )
        assert findings == []
