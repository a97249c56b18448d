"""``python -m benchmarks.e2e ...`` is ``python3 benchmarks/e2e/run.py ...``."""

import os
import runpy

runpy.run_path(os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"), run_name="__main__")
