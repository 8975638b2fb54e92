"""Each library module's `__all__` names exactly the public functions and classes it defines.

The benchmark's layer tracer calls `getattr` on every `__all__` name, so a
stale entry would break it, and a missing one would leave a function untraced.
"""

import inspect

import pytest

from linkrisk import anonymity, corpus, evaluation, framework, lm, metric


@pytest.mark.parametrize("module", [corpus, lm, metric, anonymity, evaluation, framework],
                         ids=lambda module: module.__name__)
def test_all_lists_each_public_function_and_class_once(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert all(hasattr(module, name) for name in module.__all__)
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert set(module.__all__) == defined
