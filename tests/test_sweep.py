"""Every command of the committed sweep prints what it printed when the manifest was blessed."""

import sweep


def test_sweep_matches_the_manifest():
    manifest = sweep.load()
    assert [r["argv"] for r in manifest] == sweep.commands(), "the command list moved: re-bless with tests/sweep.py"
    moved = [(record, blessed) for record, blessed in zip(sweep.run_all(), manifest) if record != blessed]
    assert not moved, f"{len(moved)} commands moved, the first: {moved[0]}"


def test_the_manifest_is_its_own_dump():
    assert sweep.dump(sweep.load()) == sweep.MANIFEST.read_text(encoding="utf-8")
