"""The README's quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

from planemirage.wavecore import ETA0

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    gamma, rho, eta, passive = out.getvalue().splitlines()
    assert abs(complex(gamma)) <= 1.0  # a lossy wall on a conductor
    rho = complex(rho)
    assert complex(eta) == ETA0 * ((1.0 + rho) / (1.0 - rho))
    assert passive in ("True", "False")
