"""Run the command-line front end as ``python -m majorana``."""

from .cli import main

if __name__ == "__main__":
    main()
