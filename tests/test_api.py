"""The package's public surface: ``blockcoh.__all__`` against its own imports."""

import ast
import inspect

import blockcoh
from blockcoh import channels, sampling


def package_imports():
    # the names bound by the "from .module import ..." lines of blockcoh/__init__.py
    tree = ast.parse(inspect.getsource(blockcoh))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from blockcoh import *", namespace)
    assert [name for name in blockcoh.__all__ if name not in namespace] == []


def test_all_lists_exactly_the_package_imports():
    assert len(set(blockcoh.__all__)) == len(blockcoh.__all__)
    assert sorted(blockcoh.__all__) == sorted(package_imports())


def test_only_two_public_callables_take_a_tolerance():
    # every other check reads its module constant; classify --tol reaches classifier_report
    candidates = [getattr(blockcoh, name) for name in blockcoh.__all__]
    tuned = sorted(fn.__name__ for fn in candidates + [channels.semantic_verdict]
                   if inspect.isfunction(fn) and "tol" in inspect.signature(fn).parameters)
    assert tuned == ["classifier_report", "is_block_incoherent"]


def test_no_public_generator_has_a_default_seed():
    # a default would draw OS entropy; every caller passes its seed
    public = [fn for name, fn in vars(sampling).items()
              if inspect.isfunction(fn) and not name.startswith("_")]
    seeded = {fn.__name__: param for fn in public
              for name, param in inspect.signature(fn).parameters.items() if name.startswith("seed")}
    assert {"haar_unitary", "random_cptp", "random_density_matrix", "random_povm"} <= set(seeded)
    assert [name for name, param in seeded.items() if param.default is not param.empty] == []
