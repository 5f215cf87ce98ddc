"""Set-up probe: a fresh interpreter imports the package and loads a config.

    python3 perfbench/probe.py W/campaign.ini

Its whole wall time, interpreter start included, is one `setup_s` sample.
"""

import sys

import cliquespace  # noqa: F401
from cliquespace.pipeline import load_config

load_config(sys.argv[1])
