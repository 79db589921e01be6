"""The differential panel tool (tests/panel.py) at a tiny size: its cases,
its record format and the three verdicts of compare."""

import json

import panel


def tiny(path):
    return panel.record(path, slots=12, seeds=(24,), warmup_samples=64)


def rewrite(path, case, key, value):
    """The panel file at path with one field of one case replaced."""
    with open(path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    for entry in entries:
        if entry["case"] == case:
            entry["row"][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(entry) + "\n" for entry in entries)


def test_panel_records_and_classifies(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    n = tiny(a)
    assert tiny(b) == n == len(list(panel.cases(slots=12, seeds=(24,))))
    assert panel.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"bit-identical: {n} cases\n"
    entries = {e["case"]: e for e in map(json.loads, a.read_text().splitlines())}
    # a two-receiver preset cannot run the single-receiver kind
    assert "single-receiver" in entries["fig6 optimal-energy seed=24"]["error"]
    case = "fig5 mdpp-energy seed=24"
    row = entries[case]["row"]

    total = float.fromhex(row["total_received"])
    rewrite(b, case, "total_received", (total * (1.0 + 4e-16)).hex())
    verdict = panel.compare(a, b)
    assert verdict.startswith("round-off: 1 of") and "max relative difference" in verdict

    rewrite(b, case, "total_received", (total * 1.001).hex())
    assert panel.compare(a, b) == f"moved: 1 of {n} cases: {case}"
    assert panel.main(["compare", str(a), str(b)]) == 1

    rewrite(b, case, "total_received", row["total_received"])
    rewrite(b, case, "duty_cycle", (float.fromhex(row["duty_cycle"]) + 1.0 / 12).hex())
    assert panel.compare(a, b) == f"moved: 1 of {n} cases: {case}"

