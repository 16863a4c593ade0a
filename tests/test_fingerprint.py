"""Pinned behaviour fingerprint of a small protocol.

The protocol is ``configs/low_dim.cfg`` cut down: UCI instance with
d=50, T=100 iterations, 2 repetitions of each of the 8 per-kind best
variants, metrics and traces on. The sha256 of ``runs.csv``,
``aggregate.csv``, every ``curve_<variant>.csv`` and
``metrics_<variant>.csv``, and of one trace's decompressed stream and its
``vcbpso metrics`` stdout and two CSVs are pinned below, and so are the
stdout and the ``.sol`` selection file of ``vcbpso solve`` on the d=500
instance of ``configs/scaling.cfg``. ``PARTIAL_PINS`` digests every
output of a second cut (d=40, T=60, 3 repetitions: 24 runs, which the
harness's run groups do not divide evenly). A change to any digest is a
behaviour change, also when every other test still passes.

The pins were generated with numpy 2.4.6 (Python 3.11.7). Regenerate them
only for an intended behaviour change, with::

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import contextlib
import gzip
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import load_config
from vcbpso import harness
from vcbpso.cli import main
from vcbpso.harness import run_experiment
from vcbpso.knapsack import save_instance

TRACE = "trace_VT2_w1-0.4_rep0"

# The x86-64 CPU the pins were generated on runs every SIMD dispatch
# target of numpy 2.4.6 above its X86_V2 baseline: X86_V3 X86_V4
# AVX512_ICL AVX512_SPR. test_pins_hold_at_the_simd_baseline reproduces
# the pins with those targets disabled.
PINS = {
    "curve_VCv1_w1.csv": "f498e43a232e7d311282a9968828adf9a607505cfa55cac4574a5c555e1c4344",
    "curve_VCv2_w1.csv": "45c96415512e9aa4599f87cbd15580e0bc80b5313e7f15d355d22c7895657b8a",
    "curve_VCv3_w1.2-0.99.csv": "b04f90131d8e212d50c101017847e4b7e3364f1ac6c2f740c3c03ef075782ee1",
    "curve_VCv4_w1.2-0.99.csv": "768386031af98b8d040a9ad13e6a72b221dec950e4449691751a3bcfdb0829bd",
    "curve_VT1_w0.6.csv": "160ac60066020b183f7e6052b0859f2284d47dcd5f8239de0852e9d345985c65",
    "curve_VT2_w1-0.4.csv": "54fbd5f6ac7244863cf13f3a1cf39d1cd4cc2997b94ddfd4cddff0bc36113123",
    "curve_VT3_w1-0.4.csv": "15f226703104a3d613251dbc5ecd1404b072ff8df8bb156bde3b041e8b5ac789",
    "curve_VT4_w1-0.4.csv": "5e0e49fef3d6a6aaeafc66d313d3947b01aec47f6ece6eabd3f30d81f6143482",
    "runs.csv": "10c4b2694f1a5647a2b692b4e947d36e97f687722d8969ba3ce7c99169ec7577",
    "aggregate.csv": "4ef8708a9c282193eca968ff41eb85c35d1ed702846b636e63abbbe5d904a7e2",
    "metrics_VCv1_w1.csv": "0004c3064a52c5d281312ce199e6df2442be7c278f6f6eab455a38de82865241",
    "metrics_VCv2_w1.csv": "e37254b4dd0b61cd42986ac028b3ccfb40c64e963bf151184748db8703627495",
    "metrics_VCv3_w1.2-0.99.csv": "e5d82e63732e8afa037be0a53cbe905e8a98d8618fc9ad0274d682fb1acfe4c6",
    "metrics_VCv4_w1.2-0.99.csv": "dbfc52646bada5f8e1fb4b15b6a45b6f6cc8b30c3d273bc52f50f010786c8717",
    "metrics_VT1_w0.6.csv": "0f01371225ce52c18550c8b206d16fc6e3b0cf79eddf856d259f5b52b07b9e1e",
    "metrics_VT2_w1-0.4.csv": "4476b7686aa5ec2dc1ad851d9727f092546eb7ec185d25b18ba322336788ab40",
    "metrics_VT3_w1-0.4.csv": "334dd62d9f69c4236c0089a12688cbf78dadfd6890206c97f41b236d6d7e4d7d",
    "metrics_VT4_w1-0.4.csv": "04f3366b6f2da4da93db0499a32ad3dad80a3be73ef238977ca56e47d551bdae",
    "trace text": "05fa138f05747a7df2b821f008f84c038592ac6f466622a8dfa2f320b2c8164f",
    "cli stdout": "af1401386b8b318e8fb86da60b06a7f53a832cd3d816cd91609ed42b9e16e3cb",
    f"{TRACE}_particle_metrics.csv": "fb6532be4d8c43ae24facef572cd105a9e4ca39918bf753f875c753996c17918",
    f"{TRACE}_aggregate_metrics.csv": "d6a0b26369bb692625c5ee24272f535ff823835722f29d218c3267786f7fbdf9",
}

# 24 runs of low_dim.cfg at d=40, T=60, 3 repetitions, traces and metrics
# on: with the group budget pinned at 8000 particle bits, at m=20, d=40
# the harness's run groups hold 10 runs on 1 or 2 CPUs, so the last group
# holds 4 VT4 runs, one corrected and three not. Every output kind is
# digested, the files of one kind in name order (traces decompressed).
PARTIAL_PINS = {
    "runs": "5d4ea93c74109a91e287bc30b56fb9a31cff886b0ef9e96410c41324a34e9b38",
    "aggregate": "ae09e788ff69d3a0d7a0e43cc23cd71e63b38b0565dfc923c8e97149ef0060cc",
    "curve_": "0c9ccec3ea425534a6d9938ed243be5de5ad17717b1a105acefb45fe1b5892f4",
    "metrics_": "9647298229e87455e5d9d968e5f01b4dd030dc791a0a35d010da1726c2e43d13",
    "trace_": "0ef00cdb1d9c08d326c5d4233cbf9b845ac6f1fb016e5172115f1fa31472789c",
}

SOLVE_PINS = {
    "solve stdout": "94e9d2955dc5a856a581edec593e46e9e434f12a92bfabc87cae73075c6613cb",
    "solve .sol": "6c369bda19b8853f4c94a68450b075cc4e0fd98874bf9b8b5ddbdd5b380d3207",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_protocol(out_dir: str) -> None:
    spec = load_config("low_dim.cfg")
    run_experiment(replace(spec, instance=replace(spec.instance, n=50),
                           iterations=100, repetitions=2, output_dir=out_dir,
                           save_traces=True))


def fingerprint(out_dir: str) -> dict[str, str]:
    """Run the protocol into ``out_dir``; digest of every pinned output."""
    run_protocol(out_dir)
    trace_path = os.path.join(out_dir, TRACE + ".txt.gz")
    stdout = _cli_stdout(["metrics", "--trace", trace_path])
    with gzip.open(trace_path, "rb") as fh:
        trace_text = fh.read()
    digests = {"cli stdout": _sha256(stdout.encode()),
               "trace text": _sha256(trace_text)}
    for name in os.listdir(out_dir):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = _sha256(fh.read())
    return digests


def partial_fingerprint(out_dir: str) -> dict[str, str]:
    """Run the 24-run protocol of ``PARTIAL_PINS`` into ``out_dir``; one
    digest per output kind."""
    spec = load_config("low_dim.cfg")
    run_experiment(replace(spec, instance=replace(spec.instance, n=40),
                           iterations=60, repetitions=3, output_dir=out_dir,
                           save_traces=True, compute_metrics=True))
    digests = {}
    for kind in ("runs", "aggregate", "curve_", "metrics_", "trace_"):
        h = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            if name.startswith(kind):
                opener = gzip.open if name.endswith(".gz") else open
                with opener(os.path.join(out_dir, name), "rb") as fh:
                    h.update(fh.read())
        digests[kind] = h.hexdigest()
    return digests


def solve_fingerprint(out_dir: str) -> dict[str, str]:
    """Digests of ``vcbpso solve`` on the ``scaling.cfg`` instance: the
    printed optimum and the selection file."""
    path = os.path.join(out_dir, "scaling.txt")
    save_instance(load_config("scaling.cfg").instance.load(), path)
    stdout = _cli_stdout(["solve", "--instance", path])
    with open(path + ".sol", "rb") as fh:
        return {"solve stdout": _sha256(stdout.encode()),
                "solve .sol": _sha256(fh.read())}


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return fingerprint(str(tmp_path_factory.mktemp("fingerprint")))


def test_pinned_outputs(digests):
    assert digests == PINS


def test_pinned_solve(tmp_path):
    assert solve_fingerprint(str(tmp_path)) == SOLVE_PINS


def test_pinned_partial_group(tmp_path, monkeypatch):
    # the budget that leaves the last group partial (see PARTIAL_PINS)
    monkeypatch.setattr(harness, "GROUP_ELEMENTS", 8000)
    assert partial_fingerprint(str(tmp_path)) == PARTIAL_PINS


def _dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this CPU runs; each is above
    numpy's baseline, which the build always uses."""
    from numpy._core import _multiarray_umath as umath
    return [target for target in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(target)]


def test_pins_hold_at_the_simd_baseline(tmp_path):
    """The PINS protocol, run in a fresh interpreter with every dispatch
    target disabled, so that numpy runs only its baseline SIMD code,
    gives the same digests: no pinned byte depends on the CPU's SIMD
    extensions. Takes about 1 s."""
    targets = _dispatch_targets()
    if not targets:
        pytest.skip("this CPU runs no numpy SIMD target above the baseline")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(tests_dir, os.pardir, "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    # numpy refuses to start with both variables set
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    script = (
        "import json, sys\n"
        "from numpy._core import _multiarray_umath as umath\n"
        "from test_fingerprint import fingerprint\n"
        "on = [t for t in sys.argv[2:] if umath.__cpu_features__.get(t)]\n"
        "print(json.dumps([on, fingerprint(sys.argv[1])]))\n")
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                             *targets], env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    still_on, digests = json.loads(result.stdout)
    assert still_on == []
    assert digests == PINS


def test_worker_pool_writes_the_in_process_bytes(tmp_path, monkeypatch):
    outputs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        out_dir = tmp_path / str(len(cpus))
        run_protocol(str(out_dir))
        outputs[len(cpus)] = {path.name: path.read_bytes()
                              for path in out_dir.iterdir()}
    # 16 traces, 8 curve and 8 metrics CSVs, runs.csv and aggregate.csv
    assert len(outputs[1]) == 34
    assert outputs[2] == outputs[1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in sorted(fingerprint(tmp).items()):
            print(f'    "{key}": "{value}",')
        for key, value in solve_fingerprint(tmp).items():
            print(f'    "{key}": "{value}",')
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in partial_fingerprint(tmp).items():
            print(f'    "{key}": "{value}",')
