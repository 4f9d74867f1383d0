import importlib.util
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path) -> Path:
    """A fake checkout: what ``main`` reads before its first run."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    return root


@pytest.mark.parametrize("side", ["parent", "change", None])
def test_a_checkout_with_bytecode_exits_2_before_any_run(tmp_path, capsys,
                                                         monkeypatch, side):
    bench = _bench_pairs()
    runs = []

    def run_once(*args):
        runs.append(args)
        return {"metrics": {}}
    monkeypatch.setattr(bench, "run_once", run_once)
    checkouts = {s: _checkout(tmp_path / s) for s in ("parent", "change")}
    out = tmp_path / "out.json"
    if side is not None:
        cache = checkouts[side] / "src" / "pkg" / "__pycache__"
        cache.mkdir()
    code = bench.main([str(checkouts["parent"]), str(checkouts["change"]),
                       "--workload", "w", "--seeds", "1",
                       "--output", str(out)])
    err = capsys.readouterr().err
    if side is None:                # clean checkouts: one pair runs
        assert code == 0 and len(runs) == 2 and out.exists()
        return
    assert code == 2 and runs == [] and not out.exists()
    assert err.count("\n") == 1 and str(cache) in err
