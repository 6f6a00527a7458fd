"""`scripts/se_compare.py` compares two study CSVs row by row in combined
standard errors."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADER = "study,sweep_param,sweep_value,scheme,metric,mean,stderr,n\n"


def _load():
    spec = importlib.util.spec_from_file_location(
        "se_compare", ROOT / "scripts" / "se_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(path, *rows):
    path.write_text(HEADER + "".join(row + "\n" for row in rows))
    return str(path)


def test_moved_rows_identical_count_and_worst_z(tmp_path, capsys):
    se_compare = _load()
    parent = _csv(tmp_path / "parent.csv",
                  "delay,num_clusters,2,clustering,delay_ms_d0_400,10,0.3,2000",
                  "delay,num_clusters,2,benchmark,delay_ms_d0_400,11,0.1,2000",
                  "delay,num_clusters,2,rnc,delay_ms_d0_400,nan,nan,0",
                  "delay,num_clusters,2,analytic,delay_ms_d0_400,9,0,0",
                  "delay,num_clusters,5,rnc,delay_ms_d0_400,4,0.1,2000")
    change = _csv(tmp_path / "change.csv",
                  "delay,num_clusters,2,clustering,delay_ms_d0_400,9,0.4,2000",
                  "delay,num_clusters,2,benchmark,delay_ms_d0_400,11,0.1,2000",
                  "delay,num_clusters,2,rnc,delay_ms_d0_400,nan,nan,0",
                  "delay,num_clusters,2,analytic,delay_ms_d0_400,9.5,0,0")
    moved, identical, removed, added = se_compare.compare(parent, change)
    assert identical == 2
    assert [(key[3], z) for key, _, _, z in moved] == [
        ("clustering", -2.0), ("analytic", math.inf)]
    assert removed == [("delay", "num_clusters", "5", "rnc",
                        "delay_ms_d0_400")] and added == []
    assert se_compare.main([parent, change]) == 0
    out = capsys.readouterr().out
    assert "| 2 | clustering | delay_ms_d0_400 | 10 ± 0.3 | 9 ± 0.4 | -2.00 |" in out
    assert out.splitlines()[-1] == (
        "2 moved, 2 byte-identical, 1 only in parent, 0 only in change; "
        "worst |z| inf")


def test_max_z_gates_the_exit_status(tmp_path):
    se_compare = _load()
    parent = _csv(tmp_path / "parent.csv",
                  "ase,num_clusters,2,clustering,ase_d0_400,1.0,0.03,100")
    change = _csv(tmp_path / "change.csv",
                  "ase,num_clusters,2,clustering,ase_d0_400,1.1,0.04,100")
    assert se_compare.main([parent, change, "--max-z", "2.5"]) == 0
    assert se_compare.main([parent, change, "--max-z", "1.5"]) == 1
    assert se_compare.main([parent, parent, "--max-z", "0"]) == 0
    only_one = _csv(tmp_path / "empty.csv")
    assert se_compare.main([parent, only_one, "--max-z", "4"]) == 1
