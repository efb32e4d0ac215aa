"""Fire and quiet cases for the inter-procedural rules PFM010-PFM013."""

from repro.devtools.lint.engine import lint_paths


def rule_findings(root, rule_id):
    result = lint_paths([root])
    return [f for f in result.findings if f.rule == rule_id]


class TestLayering:
    def test_direct_violation_fires_at_the_import(self, make_project):
        root = make_project(
            {
                "repro/telemetry/bad.py": "from repro.core import engine\n",
                "repro/core/engine.py": "x = 1\n",
            }
        )
        findings = rule_findings(root, "PFM010")
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/telemetry/bad.py")
        assert findings[0].line == 1
        assert "telemetry" in findings[0].message
        assert "core" in findings[0].message

    def test_transitive_violation_reports_the_chain(self, make_project):
        root = make_project(
            {
                "repro/telemetry/outer.py": "from repro.telemetry import inner\n",
                "repro/telemetry/inner.py": "import repro.actions.stop\n",
                "repro/actions/stop.py": "x = 1\n",
            }
        )
        findings = rule_findings(root, "PFM010")
        outer = [f for f in findings if f.path.endswith("outer.py")]
        assert len(outer) == 1
        assert "repro.telemetry.outer -> repro.telemetry.inner" in (
            outer[0].message
        )

    def test_lazy_import_is_sanctioned(self, make_project):
        root = make_project(
            {
                "repro/telemetry/ok.py": """\
                    def hook():
                        from repro.core import engine
                        return engine
                """,
                "repro/core/engine.py": "x = 1\n",
            }
        )
        assert rule_findings(root, "PFM010") == []

    def test_allowed_direction_is_quiet(self, make_project):
        root = make_project(
            {
                "repro/core/engine.py": "from repro.telemetry import hub\n",
                "repro/telemetry/hub.py": "x = 1\n",
            }
        )
        assert rule_findings(root, "PFM010") == []


class TestSimTimeTaint:
    def test_transitive_wall_call_fires(self, make_project):
        root = make_project(
            {
                "repro/simulator/step.py": """\
                    from repro.faults.util import stamp

                    def advance():
                        return stamp()
                """,
                "repro/faults/util.py": """\
                    import time

                    def stamp():
                        return time.time()
                """,
            }
        )
        findings = rule_findings(root, "PFM011")
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/simulator/step.py")
        assert "time.time" in findings[0].message
        assert "repro.faults.util::stamp" in findings[0].message

    def test_direct_call_is_pfm002_territory(self, make_project):
        root = make_project(
            {
                "repro/simulator/step.py": """\
                    import time

                    def advance():
                        return time.time()
                """,
            }
        )
        assert rule_findings(root, "PFM011") == []

    def test_suppressed_source_is_sanctioned(self, make_project):
        root = make_project(
            {
                "repro/simulator/step.py": """\
                    from repro.faults.util import stamp

                    def advance():
                        return stamp()
                """,
                "repro/faults/util.py": """\
                    import time

                    def stamp():
                        return time.time()  # pfmlint: disable=PFM002 -- wall half
                """,
            }
        )
        assert rule_findings(root, "PFM011") == []

    def test_out_of_scope_caller_is_quiet(self, make_project):
        root = make_project(
            {
                "repro/reporting/render.py": """\
                    from repro.faults.util import stamp

                    def banner():
                        return stamp()
                """,
                "repro/faults/util.py": """\
                    import time

                    def stamp():
                        return time.time()
                """,
            }
        )
        assert rule_findings(root, "PFM011") == []

    def test_one_finding_at_the_deepest_in_scope_frame(self, make_project):
        root = make_project(
            {
                "repro/simulator/step.py": """\
                    def outer():
                        return middle()

                    def middle():
                        return stamp()

                    def stamp():
                        import time
                        return time.time()
                """,
            }
        )
        findings = rule_findings(root, "PFM011")
        assert len(findings) == 1
        assert "middle" in findings[0].message.split(" is on ")[0]


class TestRngTaint:
    def test_transitive_unseeded_rng_fires(self, make_project):
        root = make_project(
            {
                "repro/fleet/plan.py": """\
                    from repro.faults.noise import jitter

                    def shuffle():
                        return jitter()
                """,
                "repro/faults/noise.py": """\
                    import numpy as np

                    def jitter():
                        return np.random.normal()
                """,
            }
        )
        findings = rule_findings(root, "PFM012")
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/fleet/plan.py")
        assert "np.random.normal" in findings[0].message

    def test_seeded_generator_is_quiet(self, make_project):
        root = make_project(
            {
                "repro/fleet/plan.py": """\
                    from repro.faults.noise import jitter

                    def shuffle(rng):
                        return jitter(rng)
                """,
                "repro/faults/noise.py": """\
                    def jitter(rng):
                        return rng.normal()
                """,
            }
        )
        assert rule_findings(root, "PFM012") == []


class TestUnpicklableFlow:
    def test_local_lambda_reaching_seam_fires(self, make_project):
        root = make_project(
            {
                "repro/fleet/go.py": """\
                    from repro.fleet.runner import run_fleet

                    def launch(specs):
                        key = lambda s: s.seed
                        return run_fleet(specs, shard_key=key)
                """,
                "repro/fleet/runner.py": """\
                    def run_fleet(specs, shard_key=None):
                        return specs
                """,
            }
        )
        findings = rule_findings(root, "PFM013")
        assert len(findings) == 1
        assert findings[0].line == 5
        assert "'key'" in findings[0].message

    def test_alias_of_lambda_fires(self, make_project):
        root = make_project(
            {
                "repro/fleet/go.py": """\
                    from repro.fleet.runner import run_fleet

                    def launch(specs):
                        key = lambda s: s.seed
                        chosen = key
                        return run_fleet(specs, shard_key=chosen)
                """,
                "repro/fleet/runner.py": """\
                    def run_fleet(specs, shard_key=None):
                        return specs
                """,
            }
        )
        assert len(rule_findings(root, "PFM013")) == 1

    def test_imported_module_level_lambda_fires(self, make_project):
        root = make_project(
            {
                "repro/fleet/keys.py": "by_seed = lambda s: s.seed\n",
                "repro/fleet/go.py": """\
                    from repro.fleet.keys import by_seed
                    from repro.fleet.runner import run_fleet

                    def launch(specs):
                        return run_fleet(specs, shard_key=by_seed)
                """,
                "repro/fleet/runner.py": """\
                    def run_fleet(specs, shard_key=None):
                        return specs
                """,
            }
        )
        findings = rule_findings(root, "PFM013")
        assert len(findings) == 1
        assert "imported from repro.fleet.keys" in findings[0].message

    def test_lambda_factory_return_fires(self, make_project):
        root = make_project(
            {
                "repro/fleet/keys.py": """\
                    def make_key():
                        return lambda s: s.seed
                """,
                "repro/fleet/go.py": """\
                    from repro.fleet.keys import make_key
                    from repro.fleet.runner import run_fleet

                    def launch(specs):
                        key = make_key()
                        return run_fleet(specs, shard_key=key)
                """,
                "repro/fleet/runner.py": """\
                    def run_fleet(specs, shard_key=None):
                        return specs
                """,
            }
        )
        findings = rule_findings(root, "PFM013")
        assert len(findings) == 1
        assert "returns a lambda" in findings[0].message

    def test_progress_kwarg_is_exempt(self, make_project):
        root = make_project(
            {
                "repro/fleet/go.py": """\
                    from repro.fleet.runner import run_fleet

                    def launch(specs):
                        cb = lambda done: None
                        return run_fleet(specs, progress=cb)
                """,
                "repro/fleet/runner.py": """\
                    def run_fleet(specs, progress=None):
                        return specs
                """,
            }
        )
        assert rule_findings(root, "PFM013") == []

    def test_module_level_function_is_quiet(self, make_project):
        root = make_project(
            {
                "repro/fleet/go.py": """\
                    from repro.fleet.runner import run_fleet

                    def by_seed(s):
                        return s.seed

                    def launch(specs):
                        return run_fleet(specs, shard_key=by_seed)
                """,
                "repro/fleet/runner.py": """\
                    def run_fleet(specs, shard_key=None):
                        return specs
                """,
            }
        )
        assert rule_findings(root, "PFM013") == []
