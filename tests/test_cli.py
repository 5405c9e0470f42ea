import json

from kq import cli


def test_verify_reports_agreement(capsys):
    assert cli.main(["verify", "2,1", "-n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == [2, 1] and report["n"] == 4
    assert report["D"] == 4 and report["coordinates"] == "power-sum"
    assert report["oracle_terms"] > 0
    assert report["routes"] == {
        "gq_pfaffian_1": True, "gq_pfaffian_2": True, "gq_fermionic": True}
    assert report["agree"] is True


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
