"""``python -m wigner_lab``: the ``wigner-lab`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
