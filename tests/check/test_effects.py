"""Effects pass: the real tree is effect-clean; seeded defects pin every
RACE/KEY/ALIAS rule id; lock guards, clones and suppressions silence them."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.check import astutil, effects


def check(snippet, path="src/repro/runtime/runner.py", roots=None):
    if roots is None:
        return effects.check_source(textwrap.dedent(snippet), path)
    return effects.check_source(textwrap.dedent(snippet), path, roots=roots)


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestRealTreeIsClean:
    def test_package_is_effect_clean(self):
        assert effects.run() == []

    def test_every_emitted_rule_is_catalogued(self):
        for rule, (severity, description) in effects.RULES.items():
            assert rule.startswith(("RACE", "KEY", "ALIAS"))
            assert description


class TestRace001GlobalRebind:
    SNIPPET = """
    _TOTAL = 0

    class Runner:
        def run_cells(self, cells):
            for cell in cells:
                _bump()

    def _bump():
        global _TOTAL
        _TOTAL += 1
    """

    def test_unguarded_rebind_on_parallel_path_is_flagged(self):
        findings = check(self.SNIPPET)
        assert rules_of(findings) == {"RACE001"}
        assert findings[0].location == "repro/runtime/runner.py:11"
        assert "_TOTAL" in findings[0].message

    def test_lock_guarded_rebind_is_fine(self):
        snippet = """
        import threading

        _TOTAL = 0
        _LOCK = threading.Lock()

        class Runner:
            def run_cells(self, cells):
                for cell in cells:
                    _bump()

        def _bump():
            global _TOTAL
            with _LOCK:
                _TOTAL += 1
        """
        assert check(snippet) == []

    def test_same_defect_off_the_parallel_path_is_fine(self):
        # no parallel root lives in this module, so nothing is reachable
        snippet = """
        _TOTAL = 0

        def bump():
            global _TOTAL
            _TOTAL += 1
        """
        assert check(snippet, path="src/repro/harness/report.py") == []

    def test_inline_suppression_silences_the_line(self):
        snippet = """
        _TOTAL = 0

        class Runner:
            def run_cells(self, cells):
                _bump()

        def _bump():
            global _TOTAL
            _TOTAL += 1  # repro: allow[RACE001] test-only counter
        """
        assert check(snippet) == []


class TestRace002SharedContainerMutation:
    def test_global_dict_write_on_parallel_path_is_flagged(self):
        snippet = """
        _RESULTS = {}

        class Runner:
            def run_cells(self, cells):
                for cell in cells:
                    _RESULTS[cell] = self._price(cell)

            def _price(self, cell):
                return cell
        """
        findings = check(snippet)
        assert rules_of(findings) == {"RACE002"}
        assert "_RESULTS" in findings[0].message

    def test_global_list_append_in_a_callee_is_flagged(self):
        snippet = """
        _LOG = []

        class Runner:
            def run_cells(self, cells):
                return [_record(cell) for cell in cells]

        def _record(cell):
            _LOG.append(cell)
            return cell
        """
        findings = check(snippet)
        assert rules_of(findings) == {"RACE002"}

    def test_method_call_writing_self_on_shared_instance_is_flagged(self):
        snippet = """
        class Tally:
            def __init__(self):
                self.count = 0

            def bump(self):
                self.count += 1

        TALLY = Tally()

        class Runner:
            def run_cells(self, cells):
                for cell in cells:
                    TALLY.bump()
        """
        findings = check(snippet)
        assert "RACE002" in rules_of(findings)
        assert any("bump()" in finding.message for finding in findings)


class TestNestedScopesBindOnlyTheirOwnName:
    """A def or class nested in a function binds its own name there, and
    nothing its body binds: a module global the nested scope shadows is
    still the enclosing function's global."""

    PROBE = """
    _CACHE = {}

    class Runner:
        def run_cells(self, cells):
            for cell in cells:
                _fill(cell)

    def _fill(cell):
%s
        _CACHE[cell] = 1
    """

    def probe(self, nested):
        return check(self.PROBE % textwrap.indent(
            textwrap.dedent(nested), " " * 8))

    def test_nested_def_binding_the_name_does_not_hide_the_write(self):
        findings = self.probe("""
            def helper():
                _CACHE = {}
                return _CACHE
            """)
        assert rules_of(findings) == {"RACE002"}
        assert "_CACHE" in findings[0].message

    def test_nested_class_binding_the_name_does_not_hide_the_write(self):
        findings = self.probe("""
            class Helper:
                _CACHE = {}
            """)
        assert rules_of(findings) == {"RACE002"}
        assert "_CACHE" in findings[0].message

    def test_nested_def_name_is_bound_in_the_enclosing_function(self):
        findings = self.probe("""
            def _CACHE():
                return {}
            """)
        assert findings == []


class TestDefInsideControlFlow:
    def test_race_in_a_def_inside_an_if_is_found(self):
        # the def is its own function, called through its bare name
        findings = check("""
        _CACHE = {}

        class Runner:
            def run_cells(self, cells):
                if cells:
                    def fill(cell):
                        _CACHE[cell] = 1

                    for cell in cells:
                        fill(cell)
        """)
        assert rules_of(findings) == {"RACE002"}
        assert findings[0].location == "repro/runtime/runner.py:8"


class TestRace003MutableDefault:
    def test_mutable_default_on_reachable_function_is_flagged(self):
        snippet = """
        class Runner:
            def run_cells(self, cells, acc=[]):
                acc.extend(cells)
                return acc
        """
        findings = check(snippet)
        assert rules_of(findings) == {"RACE003"}
        assert "acc" in findings[0].message

    def test_mutable_default_in_a_callee_is_flagged(self):
        snippet = """
        class Runner:
            def run_cells(self, cells):
                return _gather(cells)

        def _gather(cells, into={}):
            return into
        """
        assert rules_of(check(snippet)) == {"RACE003"}

    def test_immutable_default_is_fine(self):
        snippet = """
        class Runner:
            def run_cells(self, cells, limit=None, scale=1.0):
                return [cell for cell in cells][:limit]
        """
        assert check(snippet) == []


class TestRace004PureLayerBoundary:
    CLOCK = """
    import time

    def stamp():
        return time.time()
    """

    def test_pure_layer_calling_wall_clock_code_is_flagged(self):
        modules = [
            astutil.load_source(textwrap.dedent(self.CLOCK),
                                "src/repro/measurement/clock.py"),
            astutil.load_source(textwrap.dedent("""
                from repro.measurement.clock import stamp

                def lower(cells):
                    return [stamp() for cell in cells]
                """), "src/repro/engine/lower.py"),
        ]
        findings = effects.check_modules(modules)
        assert rules_of(findings) == {"RACE004"}
        assert findings[0].location.startswith("repro/engine/lower.py:")
        assert "time.time()" in findings[0].message

    def test_fires_without_parallel_root_reachability(self):
        # unlike RACE001-003 the boundary contract is layer-wide: nothing
        # here is reachable from any parallel root, yet the call still trips
        modules = [
            astutil.load_source(textwrap.dedent(self.CLOCK),
                                "src/repro/measurement/clock.py"),
            astutil.load_source(textwrap.dedent("""
                from repro.measurement.clock import stamp

                def helper(x):
                    return stamp() + x
                """), "src/repro/fleet/extras.py"),
        ]
        assert rules_of(effects.check_modules(modules)) == {"RACE004"}

    def test_seeded_rng_callee_is_deterministic_and_fine(self):
        modules = [
            astutil.load_source(textwrap.dedent("""
                from numpy.random import default_rng

                def draw(seed):
                    return default_rng(seed).random()
                """), "src/repro/measurement/noise.py"),
            astutil.load_source(textwrap.dedent("""
                from repro.measurement.noise import draw

                def lower(cells):
                    return [draw(7) for cell in cells]
                """), "src/repro/engine/lower.py"),
        ]
        assert effects.check_modules(modules) == []

    WALLS = """
    import time

    def wall_a():
        return time.time()

    def wall_b():
        return time.perf_counter()

    def wall_c():
        return time.monotonic()

    def stamp():
        return wall_a() + wall_b() + wall_c()
    """
    LOWER = """
    from repro.measurement.clock import stamp

    def lower(cells):
        return [stamp() for cell in cells]
    """

    def test_witness_is_the_first_callee_in_call_site_order(self):
        modules = [
            astutil.load_source(textwrap.dedent(self.WALLS),
                                "src/repro/measurement/clock.py"),
            astutil.load_source(textwrap.dedent(self.LOWER),
                                "src/repro/engine/lower.py"),
        ]
        findings = effects.check_modules(modules)
        assert rules_of(findings) == {"RACE004"}
        assert findings[0].message.endswith(
            "reaches time.time() in repro/measurement/clock.py:wall_a")

    def test_witness_does_not_depend_on_the_hash_seed(self):
        script = textwrap.dedent(f"""
            import textwrap
            from repro.check import astutil, effects
            modules = [
                astutil.load_source(textwrap.dedent({self.WALLS!r}),
                                    "src/repro/measurement/clock.py"),
                astutil.load_source(textwrap.dedent({self.LOWER!r}),
                                    "src/repro/engine/lower.py"),
            ]
            for finding in effects.check_modules(modules):
                print(finding.render())
            """)
        rendered = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       [str(Path(effects.__file__).parents[2]),
                        os.environ.get("PYTHONPATH", "")])}
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    check=True)
            rendered.add(result.stdout)
        assert len(rendered) == 1
        assert "wall_a" in rendered.pop()

    def test_call_within_the_pure_layers_defers_to_the_deeper_boundary(self):
        # engine -> engine call: the boundary sits at the callee's own
        # sites, so only the deeper module's crossing reports (here: none,
        # because the callee is the one making the raw time call and raw
        # nondet calls inside a pure layer are ARCH004's job, not RACE004's)
        modules = [
            astutil.load_source(textwrap.dedent(self.CLOCK),
                                "src/repro/engine/clock.py"),
            astutil.load_source(textwrap.dedent("""
                from repro.engine.clock import stamp

                def lower(cells):
                    return [stamp() for cell in cells]
                """), "src/repro/engine/lower.py"),
        ]
        assert effects.check_modules(modules) == []


class TestKey001UnkeyedMutableGlobal:
    def test_builder_reading_mutated_global_is_flagged(self):
        snippet = """
        CACHE = {}
        _SCALE = 1.0

        def set_scale(value):
            global _SCALE
            _SCALE = value

        def load(name):
            return CACHE.get_or_build(name, lambda: [name, _SCALE])
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"KEY001"}
        assert "_SCALE" in findings[0].message

    def test_keying_the_global_fixes_it(self):
        snippet = """
        CACHE = {}
        _SCALE = 1.0

        def set_scale(value):
            global _SCALE
            _SCALE = value

        def load(name):
            return CACHE.get_or_build((name, _SCALE), lambda: [name, _SCALE])
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []

    def test_never_mutated_global_is_fine(self):
        snippet = """
        CACHE = {}
        _SCALE = 1.0

        def load(name):
            return CACHE.get_or_build(name, lambda: [name, _SCALE])
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []


class TestKey002UnderKeyedClosure:
    def test_builder_closing_over_unkeyed_local_is_flagged(self):
        snippet = """
        CACHE = {}

        def load(name, scale):
            return CACHE.get_or_build(name, lambda: [name, scale])
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"KEY002"}
        assert "scale" in findings[0].message

    def test_named_builder_taking_unkeyed_param_via_closure_is_flagged(self):
        snippet = """
        CACHE = {}

        def load(name, scale):
            def build():
                return [name, scale]

            return CACHE.get_or_build(name, build)
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"KEY002"}

    def test_fully_keyed_closure_is_fine(self):
        snippet = """
        CACHE = {}

        def load(name, scale):
            return CACHE.get_or_build((name, scale), lambda: [name, scale])
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []

    def test_precomputed_key_variable_covers_its_constituents(self):
        snippet = """
        CACHE = {}

        def load(name, scale):
            key = (name, scale)
            return CACHE.get_or_build(key, lambda: [name, scale])
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []


class TestKey003OverKeyed:
    def test_key_encoding_unread_value_is_flagged(self):
        snippet = """
        CACHE = {}

        def load(name, dtype):
            return CACHE.get_or_build((name, dtype), lambda: name.upper())
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"KEY003"}
        assert "dtype" in findings[0].message
        assert findings[0].severity.value == "warning"

    def test_key_matching_builder_reads_is_fine(self):
        snippet = """
        CACHE = {}

        def load(name, dtype):
            return CACHE.get_or_build((name, dtype), lambda: (name, dtype))
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []


class TestAlias001CachedObjectMutation:
    def test_mutating_cache_result_without_clone_is_flagged(self):
        snippet = """
        CACHE = {}

        def annotate(name):
            graph = CACHE.get_or_build(name, lambda: make(name))
            graph.layers.append("annotated")
            return graph

        def make(name):
            return name
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"ALIAS001"}
        assert "clone()" in findings[0].message

    def test_clone_before_mutating_is_fine(self):
        snippet = """
        CACHE = {}

        def annotate(name):
            graph = CACHE.get_or_build(name, lambda: make(name))
            graph = graph.clone()
            graph.layers.append("annotated")
            return graph

        def make(name):
            return name
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []

    def test_passing_cached_object_to_mutating_callee_is_flagged(self):
        snippet = """
        CACHE = {}

        def annotate(name):
            graph = CACHE.get_or_build(name, lambda: make(name))
            _stamp(graph)
            return graph

        def _stamp(graph):
            graph.stamped = True

        def make(name):
            return name
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"ALIAS001"}
        assert "_stamp" in findings[0].message


class TestAlias002CachedReturnMutation:
    def test_mutating_value_from_caching_function_is_flagged(self):
        snippet = """
        CACHE = {}

        def cached_graph(name):
            return CACHE.get_or_build(name, lambda: make(name))

        def annotate(name):
            graph = cached_graph(name)
            graph.nodes.append("x")
            return graph

        def make(name):
            return name
        """
        findings = check(snippet, path="src/repro/engine/demo.py")
        assert rules_of(findings) == {"ALIAS002"}
        assert "cached_graph" in findings[0].message

    def test_clone_of_cached_return_is_fine(self):
        snippet = """
        CACHE = {}

        def cached_graph(name):
            return CACHE.get_or_build(name, lambda: make(name))

        def annotate(name):
            graph = cached_graph(name).clone()
            graph.nodes.append("x")
            return graph

        def make(name):
            return name
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []

    def test_mutating_value_from_non_caching_function_is_fine(self):
        snippet = """
        def fresh_graph(name):
            return make(name)

        def annotate(name):
            graph = fresh_graph(name)
            graph.nodes.append("x")
            return graph

        def make(name):
            return name
        """
        assert check(snippet, path="src/repro/engine/demo.py") == []


class TestCustomRoots:
    def test_roots_parameter_redefines_the_parallel_entry_points(self):
        snippet = """
        _STATE = {}

        def my_entry(cells):
            for cell in cells:
                _STATE[cell] = cell
        """
        path = "src/repro/harness/custom.py"
        assert check(snippet, path=path) == []
        findings = check(snippet, path=path,
                         roots=("harness/custom.py:my_entry",))
        assert rules_of(findings) == {"RACE002"}


class TestRegistryDispatchReachability:
    """PR 9 blind spot, closed: functions reached only through
    ``Registry.create``'s ``self._factories[key]()`` subscript dispatch are
    on the parallel paths and their races report."""

    SNIPPET = """
    _HITS = 0

    class Registry:
        def __init__(self):
            self._factories = {}

        def register(self, name, factory):
            self._factories[name] = factory

        def create(self, name):
            return self._factories[name]()

    def build_alexnet():
        global _HITS
        _HITS += 1
        return "graph"

    REGISTRY = Registry()
    REGISTRY.register("alexnet", build_alexnet)

    class Runner:
        def run_cells(self, cells):
            for cell in cells:
                REGISTRY.create(cell)
    """

    def test_race_in_registered_factory_is_reachable(self):
        findings = check(self.SNIPPET)
        assert rules_of(findings) == {"RACE001"}
        assert "_HITS" in findings[0].message

    def test_lambda_factory_stays_invisible(self):
        snippet = self.SNIPPET.replace(
            'REGISTRY.register("alexnet", build_alexnet)',
            'REGISTRY.register("alexnet", lambda: build_other())')
        findings = check(snippet)
        assert findings == []
