"""One cold start of a sweep user's process, run in a fresh interpreter.

Imports ``repro``, resolves the flip-loop backend and attaches it to a first
:class:`~repro.core.ensemble.EnsembleDynamics`, then prints one JSON line
with the split.  ``run.py`` times the whole process from spawn to that line.
"""

import json
import time

start = time.perf_counter()
import repro  # noqa: E402  (timed)
from repro.core.backends.registry import (  # noqa: E402
    resolve_backend_name,
    select_backend_name,
)

imported = time.perf_counter()
backend = resolve_backend_name(select_backend_name())
repro.EnsembleDynamics(
    repro.ModelConfig.square(side=16, horizon=1, tau=0.4),
    n_replicas=2,
    seed=0,
    backend=backend,
)
ready = time.perf_counter()
print(
    json.dumps(
        {"import_s": imported - start, "load_s": ready - imported, "backend": backend}
    ),
    flush=True,
)
