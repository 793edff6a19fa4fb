"""The square root of a square is a rational length."""

import pytest

from netwave.cli import main
from netwave.graph import Length


def test_square_radicand_parses_as_rational():
    assert Length.parse("sqrt(9/4)") == Length.parse("3/2")
    assert Length.parse("sqrt(4)").is_rational


@pytest.mark.parametrize("variant", ["circuit", "star"])
def test_square_radicand_names_the_axis_eigenvalue(tmp_path, capsys, variant):
    errors = []
    for length in ("2", "sqrt(4)"):
        rc = main(["counterexample", "--variant", variant, "--length", length,
                   "--out", str(tmp_path / length)])
        assert rc == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "eigenvalue on the axis" in errors[0]
