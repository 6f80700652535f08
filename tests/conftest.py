import os
from pathlib import Path

import numpy as np
import pytest

from arrayaudit.core import GroupLabel, LabeledMatrix

# child interpreters that tests start import the package from this checkout
# too (pytest's ``pythonpath`` setting reaches only this process)
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def small_matrix() -> LabeledMatrix:
    values = np.array(
        [
            [1.0, 2.0, 3.0],
            [4.0, 6.0, 5.0],
            [0.5, 0.25, 0.75],
        ]
    )
    return LabeledMatrix(
        ("A", "B", "C"),
        ("S1", "S2", "S3"),
        values,
        {"S1": GroupLabel.RESISTANT, "S2": GroupLabel.SENSITIVE},
    )
