import importlib.util
from pathlib import Path


def _ci_steps():
    path = Path(__file__).resolve().parents[1] / "scripts" / "ci_steps.py"
    spec = importlib.util.spec_from_file_location("ci_steps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_block_is_dedented_to_its_margin():
    text = """steps:
      - uses: actions/checkout@v4
      - name: One line
        run: echo one
      - name: A block
        timeout-minutes: 3
        run: |
          cat <<EOF
            indented

          EOF
      - name: No run
        with:
          python-version: "3.11"
"""
    assert _ci_steps().parse_steps(text) == [
        ("One line", "echo one"),
        ("A block", "cat <<EOF\n  indented\n\nEOF\n"),
        ("No run", None)]


def test_the_workflow_parses_into_its_named_steps():
    # read only: no step is run here
    ci = _ci_steps()
    steps = ci.parse_steps(ci.WORKFLOW.read_text())
    assert len(steps) == 21
    assert all(script for _, script in steps)
    assert [name for name, script in steps if "pip install" in script] == [
        "Install the test dependencies"]
    assert steps[1] == (
        "Tier-1 tests", "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
        "python -m pytest -q --continue-on-collection-errors")
    census = dict(steps)["Fiber census mod 27, symplectic"]
    assert census.splitlines()[-1] == "EOF"
    assert census.splitlines()[0].startswith("PYTHONPATH=src python ")
