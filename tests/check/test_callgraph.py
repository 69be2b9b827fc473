"""Call graph: the resolution ladder, reference edges, and reachability."""

import textwrap

from repro.check import astutil, callgraph


def module(snippet, path="src/repro/engine/demo.py"):
    return astutil.load_source(textwrap.dedent(snippet), path)


def graph(*mods):
    return callgraph.build(list(mods))


class TestResolutionLadder:
    def test_own_module_bare_call_resolves(self):
        g = graph(module("""
            def outer():
                return helper()

            def helper():
                return 1
            """))
        assert g.successors("repro/engine/demo.py:outer") == {
            "repro/engine/demo.py:helper"}

    def test_nested_def_wins_over_module_function(self):
        g = graph(module("""
            def helper():
                return "module-level"

            def outer():
                def helper():
                    return "nested"
                return helper()
            """))
        assert g.successors("repro/engine/demo.py:outer") == {
            "repro/engine/demo.py:outer.helper"}

    def test_self_method_resolves_to_own_class(self):
        g = graph(module("""
            class Runner:
                def run(self):
                    return self.price()

                def price(self):
                    return 1
            """))
        assert g.successors("repro/engine/demo.py:Runner.run") == {
            "repro/engine/demo.py:Runner.price"}

    def test_from_import_resolves_across_modules(self):
        g = graph(
            module("""
                def stamp():
                    return 0
                """, "src/repro/measurement/clock.py"),
            module("""
                from repro.measurement.clock import stamp

                def lower():
                    return stamp()
                """, "src/repro/engine/lower.py"))
        assert g.successors("repro/engine/lower.py:lower") == {
            "repro/measurement/clock.py:stamp"}

    def test_module_alias_attribute_resolves(self):
        g = graph(
            module("""
                def stamp():
                    return 0
                """, "src/repro/measurement/clock.py"),
            module("""
                import repro.measurement.clock as clock

                def lower():
                    return clock.stamp()
                """, "src/repro/engine/lower.py"))
        assert g.successors("repro/engine/lower.py:lower") == {
            "repro/measurement/clock.py:stamp"}

    def test_module_level_instance_method_resolves(self):
        g = graph(module("""
            class Memo:
                def get(self, key):
                    return key

            CACHE = Memo()

            def fetch(key):
                return CACHE.get(key)
            """))
        assert g.successors("repro/engine/demo.py:fetch") == {
            "repro/engine/demo.py:Memo.get"}

    def test_imported_instance_method_resolves(self):
        g = graph(
            module("""
                class Memo:
                    def get(self, key):
                        return key

                CACHE = Memo()
                """, "src/repro/engine/cachemod.py"),
            module("""
                from repro.engine.cachemod import CACHE

                def fetch(key):
                    return CACHE.get(key)
                """, "src/repro/engine/lower.py"))
        assert g.successors("repro/engine/lower.py:fetch") == {
            "repro/engine/cachemod.py:Memo.get"}

    def test_unique_bare_name_resolves_package_wide(self):
        g = graph(
            module("""
                def one_of_a_kind():
                    return 0
                """, "src/repro/measurement/clock.py"),
            module("""
                def caller(fn):
                    return one_of_a_kind()
                """, "src/repro/engine/lower.py"))
        assert g.successors("repro/engine/lower.py:caller") == {
            "repro/measurement/clock.py:one_of_a_kind"}

    def test_ambiguous_bare_name_yields_the_candidate_set(self):
        g = graph(
            module("""
                def dup():
                    return 1
                """, "src/repro/engine/a.py"),
            module("""
                def dup():
                    return 2
                """, "src/repro/engine/b.py"),
            module("""
                def caller():
                    return dup()
                """, "src/repro/engine/c.py"))
        assert g.successors("repro/engine/c.py:caller") == {
            "repro/engine/a.py:dup", "repro/engine/b.py:dup"}

    def test_unknown_names_resolve_to_nothing(self):
        g = graph(module("""
            import math

            def caller():
                return math.sqrt(len("x"))
            """))
        assert g.successors("repro/engine/demo.py:caller") == set()


class TestReferenceEdges:
    def test_function_passed_as_argument_creates_an_edge(self):
        g = graph(module("""
            def worker(cell):
                return cell

            def fan_out(pool, items):
                return pool.map(worker, items)
            """))
        assert g.successors("repro/engine/demo.py:fan_out") == {
            "repro/engine/demo.py:worker"}
        fnode = g.functions["repro/engine/demo.py:fan_out"]
        assert all(site.via_reference for site in fnode.refs)

    def test_nested_builder_passed_to_get_or_build_creates_an_edge(self):
        g = graph(module("""
            CACHE = {}

            def load(name):
                def build():
                    return name

                return CACHE.get_or_build(name, build)
            """))
        assert "repro/engine/demo.py:load.build" in g.successors(
            "repro/engine/demo.py:load")


class TestNestedDefIsolation:
    def test_nested_body_calls_belong_to_the_nested_node(self):
        g = graph(module("""
            def helper():
                return 1

            def outer():
                def inner():
                    return helper()
                return inner
            """))
        # outer references inner but does not inherit inner's call to helper
        outer = g.functions["repro/engine/demo.py:outer"]
        direct = {t for site in outer.calls for t in site.targets}
        assert "repro/engine/demo.py:helper" not in direct
        assert g.successors("repro/engine/demo.py:outer.inner") == {
            "repro/engine/demo.py:helper"}


class TestDefsInsideBlocks:
    def test_defs_in_every_kind_of_block_become_functions(self):
        g = graph(module("""
            try:
                def in_try():
                    return 1
            except ImportError:
                def in_except():
                    return 2

            def outer(flag, items):
                if flag:
                    def in_if():
                        return in_try()
                for item in items:
                    def in_for():
                        return item
                with flag:
                    def in_with():
                        return 3
                match flag:
                    case 1:
                        def in_case():
                            return 4
                return in_if()
            """))
        prefix = "repro/engine/demo.py:"
        assert {prefix + name for name in (
            "in_try", "in_except", "outer.in_if", "outer.in_for",
            "outer.in_with", "outer.in_case")} <= set(g.functions)
        assert g.successors(prefix + "outer") == {prefix + "outer.in_if"}
        assert g.successors(prefix + "outer.in_if") == {prefix + "in_try"}

    def test_imports_inside_blocks_stay_out(self):
        # documented blind spot: a conditional import binds nothing
        g = graph(
            module("""
                def stamp():
                    return 0
                """, "src/repro/measurement/clock.py"),
            module("""
                if True:
                    from repro.measurement.clock import stamp as clock

                def lower():
                    return clock()
                """, "src/repro/engine/lower.py"))
        assert g.successors("repro/engine/lower.py:lower") == set()


class TestReachability:
    def test_transitive_closure_includes_the_roots(self):
        g = graph(module("""
            def a():
                return b()

            def b():
                return c()

            def c():
                return 1

            def unrelated():
                return 2
            """))
        reached = g.reachable(["repro/engine/demo.py:a"])
        assert reached == {"repro/engine/demo.py:a", "repro/engine/demo.py:b",
                           "repro/engine/demo.py:c"}

    def test_reference_edges_count_as_reachable(self):
        g = graph(module("""
            def worker(cell):
                return log(cell)

            def log(cell):
                return cell

            def fan_out(pool, items):
                return pool.map(worker, items)
            """))
        reached = g.reachable(["repro/engine/demo.py:fan_out"])
        assert "repro/engine/demo.py:worker" in reached
        assert "repro/engine/demo.py:log" in reached

    def test_unknown_roots_reach_nothing(self):
        g = graph(module("def f():\n    return 1\n"))
        assert g.reachable(["repro/engine/demo.py:missing"]) == set()


class TestFind:
    def test_find_matches_by_suffix(self):
        g = graph(module("""
            class Runner:
                def run_cells(self):
                    return 1
            """, "src/repro/runtime/runner.py"))
        assert g.find("runtime/runner.py:Runner.run_cells") == [
            "repro/runtime/runner.py:Runner.run_cells"]

    def test_find_misses_cleanly(self):
        g = graph(module("def f():\n    return 1\n"))
        assert g.find("nowhere.py:ghost") == []


class TestRealPackageGraph:
    def test_every_parallel_root_resolves_in_the_real_tree(self):
        from repro.check import effects

        g = callgraph.build(astutil.load_package())
        for root in effects.PARALLEL_ROOTS:
            assert g.find(root), f"parallel root {root} not found"

    def test_fallback_def_inside_an_if_reaches_the_runner(self):
        # energy_delay_table defines its default session_factory inside
        # `if session_factory is None:`
        g = callgraph.build(astutil.load_package())
        fid = "repro/analysis/efficiency.py:energy_delay_table"
        assert f"{fid}.session_factory" in g.successors(fid)
        assert "repro/runtime/runner.py:Runner.session" in g.reachable([fid])

    def test_real_tree_reaches_the_cache_layer(self):
        from repro.check import effects

        g = callgraph.build(astutil.load_package())
        roots = [fid for root in effects.PARALLEL_ROOTS
                 for fid in g.find(root)]
        reached = g.reachable(roots)
        assert "repro/engine/cache.py:MemoCache.get_or_build" in reached


class TestSubscriptDispatch:
    REGISTRY = """
        class Registry:
            def __init__(self):
                self._factories = {}

            def register(self, name, factory):
                self._factories[name] = factory

            def create(self, name):
                return self._factories[name]()

        def build_alexnet():
            return "alexnet"

        def build_vgg():
            return "vgg"

        REGISTRY = Registry()
        REGISTRY.register("alexnet", build_alexnet)
        REGISTRY.register("vgg", factory=build_vgg)
        """

    def test_registered_functions_become_create_candidates(self):
        g = graph(module(self.REGISTRY))
        assert g.successors("repro/engine/demo.py:Registry.create") == {
            "repro/engine/demo.py:build_alexnet",
            "repro/engine/demo.py:build_vgg"}

    def test_loop_registration_resolves_every_loop_value(self):
        g = graph(module("""
            class Registry:
                def __init__(self):
                    self._factories = {}

                def register(self, name, factory):
                    self._factories[name] = factory

                def create(self, name):
                    return self._factories[name]()

            def rpi3():
                return "rpi3"

            def tx2():
                return "tx2"

            REGISTRY = Registry()
            for _factory in (rpi3, tx2):
                REGISTRY.register(_factory().__doc__, _factory)
            """))
        assert g.successors("repro/engine/demo.py:Registry.create") == {
            "repro/engine/demo.py:rpi3", "repro/engine/demo.py:tx2"}

    def test_factory_helper_returning_nested_def_resolves(self):
        g = graph(module("""
            class Registry:
                def __init__(self):
                    self._factories = {}

                def register(self, name, factory):
                    self._factories[name] = factory

                def create(self, name):
                    return self._factories[name]()

            def make_factory(name):
                def factory():
                    return name

                return factory

            REGISTRY = Registry()
            REGISTRY.register("alexnet", make_factory("alexnet"))
            """))
        assert g.successors("repro/engine/demo.py:Registry.create") == {
            "repro/engine/demo.py:make_factory.factory"}

    def test_module_dict_table_dispatch_resolves(self):
        g = graph(module("""
            def run_graphs():
                return 1

            def run_arch():
                return 2

            PASSES = {"graphs": run_graphs, "arch": run_arch}

            def run_checks(name):
                return PASSES[name]()
            """))
        assert g.successors("repro/engine/demo.py:run_checks") == {
            "repro/engine/demo.py:run_graphs", "repro/engine/demo.py:run_arch"}

    def test_imported_dict_table_dispatch_resolves(self):
        g = graph(
            module("""
                def run_graphs():
                    return 1

                PASSES = {"graphs": run_graphs}
                """, "src/repro/check/passes.py"),
            module("""
                from repro.check.passes import PASSES

                def main(name):
                    return PASSES[name]()
                """, "src/repro/engine/cli.py"))
        assert g.successors("repro/engine/cli.py:main") == {
            "repro/check/passes.py:run_graphs"}

    def test_lambda_registration_stays_unresolved(self):
        # The documented remaining blind spot: a lambda has no name to
        # resolve, so create() gains no edge from it.
        g = graph(module("""
            class Registry:
                def __init__(self):
                    self._factories = {}

                def register(self, name, factory):
                    self._factories[name] = factory

                def create(self, name):
                    return self._factories[name]()

            REGISTRY = Registry()
            REGISTRY.register("exp", lambda: "experiment")
            """))
        assert g.successors("repro/engine/demo.py:Registry.create") == set()


class TestRealTreeDispatch:
    def test_registry_create_reaches_the_registered_factories(self):
        g = callgraph.build(astutil.load_package())
        reached = g.reachable(["repro/core/registry.py:Registry.create"])
        assert "repro/models/zoo.py:_make_factory.factory" in reached
        assert "repro/hardware/catalog.py:raspberry_pi_3b" in reached
        assert "repro/hardware/catalog.py:jetson_tx2" in reached

    def test_check_passes_table_reaches_every_pass(self):
        g = callgraph.build(astutil.load_package())
        reached = g.reachable(["repro/check/__init__.py:run_checks"])
        for name in ("graphs", "tables", "arch", "units", "effects"):
            assert f"repro/check/{name}.py:run" in reached, name
