"""Call-graph builder: resolution, hierarchy, unresolved reporting."""

from repro.analysis.callgraph import build_call_graph
from repro.analysis.core import Project, SourceModule, collect_files


def graph_for(root):
    modules = [SourceModule.from_path(p) for p in collect_files([root])]
    return build_call_graph(Project(modules))


def test_reexported_name_resolves_to_definition(package_tree):
    root = package_tree(
        {
            "repro.common.errors": """
                class ReproError(Exception):
                    pass


                class UncorrectableReadError(ReproError):
                    pass
            """,
            "repro.flash.__init__": """
                from repro.common.errors import UncorrectableReadError
            """,
            "repro.ftl.user": """
                from repro.flash import UncorrectableReadError


                def handle():
                    return UncorrectableReadError()
            """,
        }
    )
    graph = graph_for(root)
    edges = graph.edges["repro.ftl.user.handle"]
    assert "repro.common.errors.UncorrectableReadError" in edges


def test_method_resolution_through_attribute_type(package_tree):
    root = package_tree(
        {
            "repro.ftl.block_manager": """
                class BlockManager:
                    def claim_block(self, pba):
                        return pba
            """,
            "repro.timessd.recovery": """
                from repro.ftl.block_manager import BlockManager


                class Rebuilder:
                    def __init__(self):
                        self.bm = BlockManager()

                    def rebuild(self):
                        return self.bm.claim_block(3)
            """,
        }
    )
    graph = graph_for(root)
    caller = "repro.timessd.recovery.Rebuilder.rebuild"
    callee = "repro.ftl.block_manager.BlockManager.claim_block"
    assert callee in graph.edges[caller]


def test_override_dispatch_targets_base_and_subclass(package_tree):
    root = package_tree(
        {
            "repro.ftl.ssd": """
                class BaseSSD:
                    def flush(self):
                        return 0

                    def sync(self):
                        return self.flush()
            """,
            "repro.timessd.ssd": """
                from repro.ftl.ssd import BaseSSD


                class TimeSSD(BaseSSD):
                    def flush(self):
                        return 1
            """,
        }
    )
    graph = graph_for(root)
    edges = graph.edges["repro.ftl.ssd.BaseSSD.sync"]
    assert "repro.ftl.ssd.BaseSSD.flush" in edges
    assert "repro.timessd.ssd.TimeSSD.flush" in edges


def test_super_call_resolves_up_the_mro_only(package_tree):
    root = package_tree(
        {
            "repro.common.errors": """
                class ReproError(Exception):
                    def __init__(self, message):
                        super().__init__(message)


                class ReadError(ReproError):
                    def __init__(self, ppa):
                        super().__init__("read failed at %d" % ppa)
            """,
            "repro.fs.volume": """
                class Volume:
                    def __init__(self, driver):
                        driver.write_pages()
            """,
        }
    )
    graph = graph_for(root)
    # Not "every __init__ in the project": that guess made raising an
    # error reach whatever any constructor does.
    assert set(graph.edges["repro.common.errors.ReadError.__init__"]) == {
        "repro.common.errors.ReproError.__init__"
    }
    # A base outside the project (Exception) has no edge at all.
    assert graph.edges.get("repro.common.errors.ReproError.__init__", {}) == {}


def test_dynamic_call_lands_in_unresolved_report(package_tree):
    root = package_tree(
        {
            "repro.workloads.runner": """
                def apply(handler):
                    return handler()
            """,
        }
    )
    graph = graph_for(root)
    dynamic = [u for u in graph.unresolved if u.reason == "dynamic-call"]
    assert any(u.caller == "repro.workloads.runner.apply" for u in dynamic)
    assert graph.edges.get("repro.workloads.runner.apply", {}) == {}


def test_ambiguous_method_edges_to_all_candidates(package_tree):
    root = package_tree(
        {
            "repro.flash.a": """
                class Reader:
                    def poke(self):
                        return 1
            """,
            "repro.ftl.b": """
                class Writer:
                    def poke(self):
                        return 2
            """,
            "repro.obs.c": """
                def kick(thing):
                    return thing.poke()
            """,
        }
    )
    graph = graph_for(root)
    caller = "repro.obs.c.kick"
    edges = graph.edges[caller]
    assert "repro.flash.a.Reader.poke" in edges
    assert "repro.ftl.b.Writer.poke" in edges
    ambiguous = [u for u in graph.unresolved if u.reason == "ambiguous-method"]
    assert any(u.caller == caller for u in ambiguous)


def test_builtin_method_names_do_not_count_as_ambiguous(package_tree):
    root = package_tree(
        {
            "repro.common.holder": """
                def gather(items):
                    out = []
                    out.append(items)
                    return out
            """,
        }
    )
    graph = graph_for(root)
    assert graph.edges.get("repro.common.holder.gather", {}) == {}
    assert not any(
        u.caller == "repro.common.holder.gather" for u in graph.unresolved
    )
