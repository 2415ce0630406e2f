"""The kernel backend's name.

Every kernel in ``camarl.nn.kernels`` and ``camarl.envs.core`` is plain
numpy; there is no other backend.
"""

BACKEND = "numpy"  # perfbench/run.py records this and keys kernel times by it
