"""Run the fchlab CLI with scipy unimportable.

    python tests/no_scipy.py profile --kind micelle --n 2

Any attempt to import scipy or a scipy submodule raises ImportError, so a
zero exit shows the command needs numpy alone.
"""

import sys


class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this run: import of {name}")
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, _BlockScipy())
    from fchlab.cli import main

    sys.exit(main(sys.argv[1:]))
