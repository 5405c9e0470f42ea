import json

import pytest

from kq import cli
from kq.oracle import gq_oracle


def test_verify_reports_agreement(capsys):
    assert cli.main(["verify", "2,1", "-n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == [2, 1] and report["n"] == 4
    assert report["D"] == 4 and report["coordinates"] == "power-sum"
    assert report["oracle_terms"] == 4
    assert report["routes"] == {
        "gq_pfaffian_1": True, "gq_pfaffian_2": True, "gq_fermionic": True}
    assert report["agree"] is True
    seconds = report["seconds"]
    assert set(seconds) == {"oracle", "from_finite", "routes"}
    assert set(seconds["routes"]) == set(cli.ROUTES)
    for s in (seconds["oracle"], seconds["from_finite"], *seconds["routes"].values()):
        assert isinstance(s, float) and s >= 0


def test_verify_rejects_a_non_strict_partition(capsys):
    assert cli.main(["verify", "2,2", "-n", "4"]) != 0
    out = capsys.readouterr()
    assert out.out == ""
    assert "strictly decreasing" in out.err


def test_verify_fails_when_a_route_disagrees(capsys, monkeypatch):
    monkeypatch.setitem(cli.ROUTES, "gq_fermionic", lambda lam, D: 0)
    assert cli.main(["verify", "2,1", "-n", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["routes"]["gq_fermionic"] is False
    assert report["agree"] is False


@pytest.mark.parametrize("lam, n, count", [((2, 1), 4, 4), ((3, 2, 1), 6, 1)])
def test_verify_counts_the_oracle_schur_terms(capsys, lam, n, count):
    # the oracle answers one value per (nu, b-power) of sum c b^k s_nu, and
    # the report counts them: at D = 6, GQ_(3,2,1) keeps only its degree 6
    # part, Q_(3,2,1) = 8 s_(3,2,1)
    assert cli.main(["verify", ",".join(map(str, lam)), "-n", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_terms"] == count == len(gq_oracle(lam, n).terms)
