"""Every backend name a pipeline CLI advertises runs every pipeline.

The CLIs take ``--backend`` from :data:`~repro.pipelines.common.BACKEND_NAMES`,
and the live, serve and pool-load pipelines drive streaming sessions with
it.  A name whose backend cannot run a session (or a one-shot query) must
not be offered, so each pipeline runs here, on tiny inputs, once per name.
"""

import importlib

import pytest

from repro.bench.workloads import e2e_dataset
from repro.pipelines.common import BACKEND_NAMES, backend_from_name
from repro.pipelines.e2e import run_lifestream_e2e
from repro.pipelines.live import replay_e2e_live
from repro.pipelines.loadgen import run_pool_load
from repro.pipelines.serve import serve_cohort


@pytest.fixture(scope="module")
def dataset():
    return e2e_dataset(duration_seconds=6.0, seed=4)


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestEveryBackendName:
    def test_one_shot(self, dataset, name):
        run = run_lifestream_e2e(*dataset, backend=name)
        assert run.events_emitted > 0
        assert run.extra["backend"].startswith(name)

    def test_live_session(self, dataset, name):
        report = replay_e2e_live(*dataset, backend=name)
        assert report.backend == name
        assert report.events_emitted > 0
        assert report.parity

    def test_serve_cohort(self, name):
        local = serve_cohort(n_patients=3, duration_seconds=3.0, backend=name)
        pooled = serve_cohort(n_patients=3, duration_seconds=3.0, backend=name, n_workers=2)
        assert local.events_emitted > 0
        assert pooled.pump_rows == local.pump_rows

    def test_pool_load(self, name):
        report = run_pool_load(
            n_sessions=4, n_workers=2, duration_seconds=1.0, rounds=2, backend=name
        )
        assert report.events_emitted > 0
        assert report.recoveries == 0


@pytest.mark.parametrize("cli", ["e2e", "live", "serve", "loadgen"])
def test_cli_rejects_window_sharded_backend(cli, capsys):
    # The window-sharded backend is gone: its old name is not a choice, so
    # argparse refuses it before any work starts.
    module = importlib.import_module(f"repro.pipelines.{cli}")
    with pytest.raises(SystemExit) as excinfo:
        module.main(["--backend", "multiprocess"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'multiprocess'" in capsys.readouterr().err


def test_backend_from_name_rejects_window_sharded_backend():
    with pytest.raises(ValueError, match="unknown backend 'multiprocess'"):
        backend_from_name("multiprocess")
    with pytest.raises(TypeError):
        backend_from_name("vectorized", n_workers=2)
