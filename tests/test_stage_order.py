"""Stage-order invariants, as a Hypothesis state machine.

Random sequences of single stages and ``run`` go through ``main``, in
process, on the 12-entry fixture, with replay.  Between them the
machine flips Stockholm's annotation and deletes recorded responses.
After every step the dataset must be internally consistent: a ``qid``
only on a possible location, ``similarity`` and coordinates only with
a ``qid``, and coordinates that belong to that ``qid``.  A successful
``report`` plots exactly the entries that qualify; a failed command
writes only what its finished stages made.

A failure is allowed where the fixture cannot answer: a deleted
response; a link after an odd number of flips, whose description
request then differs from the recorded one; or a coords after a
``--min-sim`` that dropped links, whose query then names other items.
A ``run`` with none of these must succeed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test,
)

import pipeline_fixtures as fx
from conftest import Workspace, make_workspace, workspace_at
from geolex import cli
from geolex.corpus import load_dataset
from geolex.wikidata import parse_wkt_point

FLIPPED = "9:211:2"  # Stockholm
# None and -1 keep every link.  On the fixture 0.3 drops Iowa's, 0.45
# three more with coordinates, and 0.6 every link.
MIN_SIMS = st.sampled_from([None, -1.0, 0.3, 0.45, 0.6])


def dataset_bytes(workspace: Workspace) -> bytes | None:
    return workspace.dataset.read_bytes() if workspace.dataset.exists() else None


def invoke(workspace: Workspace, *argv: str) -> tuple[int, list[str]]:
    """Run one command quietly; its exit code and finished stages."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = workspace.run(*argv)
    finished = [json.loads(line)["stage"] for line in out.getvalue().splitlines()
                if line.startswith("{")]
    return code, finished


def clone(workspace: Workspace, root: Path) -> Workspace:
    """A copy of ``workspace`` at ``root`` whose config names its files."""
    shutil.copytree(workspace.root, root)
    text = workspace.config_path.read_text(encoding="utf-8")
    old, new = json.dumps(str(workspace.root))[1:-1], json.dumps(str(root))[1:-1]
    (root / "config.json").write_text(text.replace(old, new), encoding="utf-8")
    return workspace_at(root)


def with_min_sim(argv: list[str], min_sim: float | None) -> list[str]:
    return argv if min_sim is None else [*argv, "--min-sim", str(min_sim)]


class StageOrder(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="geolex-stage-order-"))
        self.workspace = make_workspace(self.tmp / "ws")
        self.recorded = fx.build_replay_cache(self.workspace.cache_dir)
        self.punctured = False
        self.flips = 0

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @initialize()
    def run_first(self):
        """Start from a finished run: before ingest every other stage
        only fails for want of a dataset."""
        assert invoke(self.workspace, "run")[0] == 0

    def single_stage(self, *argv: str) -> None:
        before = dataset_bytes(self.workspace)
        code, _ = invoke(self.workspace, *argv)
        assert code in (0, cli.STAGE_EXIT_CODES[argv[0]]), (argv, code)
        if code:
            assert dataset_bytes(self.workspace) == before, argv
        elif argv[0] == "report":
            self.check_report()

    @rule()
    def ingest(self):
        self.single_stage("ingest")

    @rule()
    def train(self):
        self.single_stage("train")

    @rule()
    def classify(self):
        self.single_stage("classify")

    @rule(min_sim=MIN_SIMS)
    def link(self, min_sim):
        self.single_stage(*with_min_sim(["link"], min_sim))

    @rule()
    def coords(self):
        self.single_stage("coords")

    @rule()
    def report(self):
        self.single_stage("report")

    @rule(min_sim=MIN_SIMS)
    def run(self, min_sim):
        shadow = clone(self.workspace, self.tmp / "shadow")
        try:
            code, finished = invoke(self.workspace, *with_min_sim(["run"], min_sim))
            if not self.punctured and self.flips % 2 == 0 and min_sim in (None, -1.0):
                assert code == 0, "the fixture answers every request of a plain run"
            if code == 0:
                self.check_report()
                return
            assert code in cli.STAGE_EXIT_CODES.values()
            # The stages that finished, each run alone, write the same.
            for stage in finished:
                argv = with_min_sim([stage], min_sim) if stage == "link" else [stage]
                assert invoke(shadow, *argv)[0] == 0, argv
            assert dataset_bytes(self.workspace) == dataset_bytes(shadow)
        finally:
            shutil.rmtree(shadow.root)

    @rule(retrain=st.booleans())
    def flip_annotation(self, retrain):
        """Flip Stockholm's label; with ``retrain``, then train and
        classify, as a curator would."""
        lines = self.workspace.annotations.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            if record["entry_id"] == FLIPPED:
                record["is_location"] = not record["is_location"]
        self.workspace.annotations.write_text(
            "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
        )
        self.flips += 1
        if retrain:
            self.single_stage("train")
            self.single_stage("classify")

    @rule(data=st.data())
    def delete_recorded_response(self, data):
        label = data.draw(st.sampled_from(sorted(self.recorded)))
        self.recorded[label].unlink(missing_ok=True)
        self.punctured = True

    def check_report(self):
        features = json.loads(self.workspace.geojson.read_text(encoding="utf-8"))["features"]
        plotted = {feature["properties"]["entry_id"] for feature in features}
        qualify = {
            entry.id for entry in load_dataset(self.workspace.dataset)
            if entry.is_location is not False and entry.qid is not None
            and entry.lat is not None and entry.lon is not None
        }
        assert plotted == qualify

    @invariant()
    def dataset_is_consistent(self):
        if not self.workspace.dataset.exists():
            return
        for entry in load_dataset(self.workspace.dataset):
            if entry.qid is not None:
                assert entry.is_location is not False, entry.id
            else:
                assert (entry.similarity, entry.lat, entry.lon) == (None,) * 3, entry.id
            assert (entry.lat is None) == (entry.lon is None), entry.id
            if entry.lat is not None:
                point = parse_wkt_point(fx.COORD_WKT[entry.qid])
                assert (entry.lat, entry.lon) == (point.lat, point.lon), entry.id


def test_stage_order_keeps_the_dataset_consistent(no_network):
    run_state_machine_as_test(StageOrder, settings=settings(
        max_examples=30, stateful_step_count=10, deadline=None, database=None,
        derandomize=True, suppress_health_check=list(HealthCheck),
    ))
