"""The project model: module naming, graphs, resolution, and taint."""

import ast

from repro.devtools.lint.engine import iter_python_files, parse_suppressions
from repro.devtools.lint.findings import ModuleContext
from repro.devtools.lint.project import (
    build_module_summary,
    build_project_model,
    module_name_for_path,
)


def model_for(root, suppress=False):
    summaries = []
    for path in iter_python_files([root]):
        module = module_name_for_path(path)
        if module is None:
            continue
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        suppressions = parse_suppressions(source) if suppress else {}
        context = ModuleContext(path=path, source=source, tree=ast.parse(source))
        summaries.append(build_module_summary(context, module, suppressions))
    return build_project_model(summaries)


class TestModuleNaming:
    def test_package_climb(self, make_project):
        root = make_project({"repro/fleet/runner.py": "x = 1\n"})
        assert (
            module_name_for_path(f"{root}/repro/fleet/runner.py")
            == "repro.fleet.runner"
        )
        assert module_name_for_path(f"{root}/repro/fleet/__init__.py") == (
            "repro.fleet"
        )

    def test_file_outside_any_package_is_toplevel(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("x = 1\n")
        assert module_name_for_path(str(script)) == "script"

    def test_packageless_init_names_its_directory(self, tmp_path):
        pkg = tmp_path / "lonepkg"
        pkg.mkdir()
        init = pkg / "__init__.py"
        init.write_text("")
        assert module_name_for_path(str(init)) == "lonepkg"


class TestImportGraph:
    def test_toplevel_imports_are_edges_lazy_imports_are_not(
        self, make_project
    ):
        root = make_project(
            {
                "repro/a.py": """\
                    import repro.b

                    def f():
                        from repro import c  # lazy: no graph edge
                """,
                "repro/b.py": "x = 1\n",
                "repro/c.py": "y = 2\n",
            }
        )
        model = model_for(root)
        edges = {
            (src, dst)
            for src in model.modules
            for dst, _lineno in model.import_edges(src)
        }
        assert ("repro.a", "repro.b") in edges
        assert ("repro.a", "repro.c") not in edges

    def test_from_import_of_submodule_resolves_to_it(self, make_project):
        root = make_project(
            {
                "repro/pkg/leaf.py": "x = 1\n",
                "repro/user.py": "from repro.pkg import leaf\n",
            }
        )
        model = model_for(root)
        targets = {dst for dst, _lineno in model.import_edges("repro.user")}
        assert "repro.pkg.leaf" in targets

    def test_import_chain_is_shortest(self, make_project):
        root = make_project(
            {
                "repro/a.py": "import repro.b\nimport repro.d\n",
                "repro/b.py": "import repro.c\n",
                "repro/c.py": "import repro.d\n",
                "repro/d.py": "x = 1\n",
            }
        )
        model = model_for(root)
        chain = model.import_chain("repro.a", {"repro.d"})
        assert chain.modules == ["repro.a", "repro.d"]


class TestCallResolution:
    def test_cross_module_call_via_from_import(self, make_project):
        root = make_project(
            {
                "repro/lib.py": """\
                    def helper():
                        return 1
                """,
                "repro/app.py": """\
                    from repro.lib import helper

                    def run():
                        return helper()
                """,
            }
        )
        model = model_for(root)
        callees = {site.callee for site in model.calls_from("repro.app::run")}
        assert "repro.lib::helper" in callees

    def test_reexport_chain_resolves(self, make_project):
        root = make_project(
            {
                "repro/impl.py": """\
                    def deep():
                        return 1
                """,
                "repro/facade.py": "from repro.impl import deep\n",
                "repro/app.py": """\
                    from repro.facade import deep

                    def run():
                        return deep()
                """,
            }
        )
        model = model_for(root)
        callees = {site.callee for site in model.calls_from("repro.app::run")}
        assert "repro.impl::deep" in callees

    def test_self_method_resolves_through_base_class(self, make_project):
        root = make_project(
            {
                "repro/cls.py": """\
                    class Base:
                        def step(self):
                            return 1

                    class Child(Base):
                        def run(self):
                            return self.step()
                """,
            }
        )
        model = model_for(root)
        callees = {
            site.callee for site in model.calls_from("repro.cls::Child.run")
        }
        assert "repro.cls::Base.step" in callees

    def test_constructed_local_method_resolves(self, make_project):
        root = make_project(
            {
                "repro/cls.py": """\
                    class Engine:
                        def tick(self):
                            return 1

                    def run():
                        eng = Engine()
                        return eng.tick()
                """,
            }
        )
        model = model_for(root)
        callees = {site.callee for site in model.calls_from("repro.cls::run")}
        assert "repro.cls::Engine.tick" in callees


class TestTaint:
    def test_wall_taint_crosses_modules(self, make_project):
        root = make_project(
            {
                "repro/util.py": """\
                    import time

                    def stamp():
                        return time.time()
                """,
                "repro/sim.py": """\
                    from repro.util import stamp

                    def step():
                        return stamp()
                """,
            }
        )
        model = model_for(root)
        chains = model.taint_chains("wall")
        assert "repro.sim::step" in chains
        next_hop, _lineno, source = chains["repro.sim::step"]
        assert next_hop == "repro.util::stamp"
        assert source == "time.time"
        # The direct offender is recorded as chain-terminal.
        assert chains["repro.util::stamp"][0] is None

    def test_suppressed_source_does_not_taint_callers(self, make_project):
        root = make_project(
            {
                "repro/util.py": """\
                    import time

                    def stamp():
                        return time.time()  # pfmlint: disable=PFM002 -- wall half
                """,
                "repro/sim.py": """\
                    from repro.util import stamp

                    def step():
                        return stamp()
                """,
            }
        )
        model = model_for(root, suppress=True)
        assert "repro.sim::step" not in model.taint_chains("wall")

    def test_rng_taint_through_helper(self, make_project):
        root = make_project(
            {
                "repro/h.py": """\
                    import numpy as np

                    def draw():
                        return np.random.rand()

                    def outer():
                        return draw()
                """,
            }
        )
        model = model_for(root)
        chains = model.taint_chains("rng")
        assert chains["repro.h::outer"][0] == "repro.h::draw"

    def test_render_chain_ends_at_the_source_call(self, make_project):
        root = make_project(
            {
                "repro/h.py": """\
                    import time

                    def a():
                        return b()

                    def b():
                        return time.perf_counter()
                """,
            }
        )
        model = model_for(root)
        chains = model.taint_chains("wall")
        rendered = model.render_chain("repro.h::a", chains)
        assert rendered.startswith("repro.h::a -> repro.h::b")
        assert rendered.endswith("time.perf_counter()")


class TestDeterminism:
    def test_model_is_order_insensitive(self, make_project):
        root = make_project(
            {
                "repro/a.py": "import repro.b\n",
                "repro/b.py": "import repro.c\n",
                "repro/c.py": "x = 1\n",
            }
        )
        summaries = []
        for path in iter_python_files([root]):
            module = module_name_for_path(path)
            if module is None:
                continue
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            context = ModuleContext(
                path=path, source=source, tree=ast.parse(source)
            )
            summaries.append(build_module_summary(context, module, {}))
        forward = build_project_model(summaries)
        backward = build_project_model(list(reversed(summaries)))
        assert forward.function_keys() == backward.function_keys()
        for module in forward.modules:
            assert forward.import_edges(module) == backward.import_edges(module)
