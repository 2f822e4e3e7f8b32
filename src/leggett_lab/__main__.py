"""``python -m leggett_lab``: the leggett-lab command line."""

from .cli import main

if __name__ == "__main__":
    main()
