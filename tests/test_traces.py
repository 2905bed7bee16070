"""Tests for trace generation (arrivals, sizes, generator) and the store."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.traces import (
    DiurnalProcess,
    MarkovModulatedProcess,
    PoissonProcess,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    materialize,
    pareto_sizes,
    proportional_slack,
    read_trace_csv,
    read_trace_jsonl,
    uniform_sizes,
    uniform_slack,
    write_trace_csv,
    write_trace_jsonl,
)


def spec(seed: int = 3, rate: float = 4.0, duration: float = 25.0) -> TraceSpec:
    return TraceSpec(
        arrivals=PoissonProcess(rate),
        duration=duration,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(2.5, 1.0),
        seed=seed,
    )


class TestArrivalProcesses:
    @pytest.mark.parametrize(
        "process",
        [
            PoissonProcess(5.0),
            MarkovModulatedProcess(rates=(0.5, 10.0), mean_dwell=(4.0, 1.0)),
            DiurnalProcess(base_rate=1.0, peak_rate=10.0, period=20.0),
        ],
    )
    def test_times_sorted_and_bounded(self, process):
        times = list(process.times(np.random.default_rng(0), 20.0))
        assert times, "process emitted no arrivals"
        assert all(0.0 < t <= 20.0 for t in times)
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_poisson_rate_roughly_matches(self):
        times = list(PoissonProcess(10.0).times(np.random.default_rng(1), 200.0))
        assert times == sorted(times)
        assert len(times) == pytest.approx(2000, rel=0.1)
        assert PoissonProcess(10.0).mean_rate() == 10.0

    def test_mmpp_is_burstier_than_poisson(self):
        """Interarrival CV: ~1 for Poisson, >1 for a two-state MMPP."""

        def cv(times):
            gaps = np.diff(np.asarray(times))
            return float(np.std(gaps) / np.mean(gaps))

        rng = np.random.default_rng(7)
        mmpp = MarkovModulatedProcess(rates=(0.2, 20.0), mean_dwell=(10.0, 2.0))
        bursty = list(mmpp.times(rng, 500.0))
        smooth = list(
            PoissonProcess(mmpp.mean_rate()).times(
                np.random.default_rng(7), 500.0
            )
        )
        assert cv(bursty) > 1.3 > cv(smooth)

    def test_mmpp_mean_rate_is_dwell_weighted(self):
        mmpp = MarkovModulatedProcess(rates=(0.0, 6.0), mean_dwell=(2.0, 1.0))
        assert mmpp.mean_rate() == pytest.approx(2.0)

    def test_diurnal_peaks_mid_period(self):
        process = DiurnalProcess(base_rate=0.5, peak_rate=20.0, period=30.0)
        times = np.asarray(
            list(process.times(np.random.default_rng(2), 30.0))
        )
        # Intensity integrals over the thirds: middle ~1.55x the outer two
        # combined ((1 - cos) concentrates around the mid-period crest).
        trough = np.sum(times < 10.0) + np.sum(times > 20.0)
        peak = np.sum((times >= 10.0) & (times <= 20.0))
        assert peak > 1.3 * trough
        assert process.rate_at(15.0) == pytest.approx(20.0)
        assert process.rate_at(0.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PoissonProcess(0.0)
        with pytest.raises(ValidationError):
            MarkovModulatedProcess(rates=(1.0,), mean_dwell=(1.0,))
        with pytest.raises(ValidationError):
            MarkovModulatedProcess(rates=(0.0, 0.0), mean_dwell=(1.0, 1.0))
        with pytest.raises(ValidationError):
            MarkovModulatedProcess(rates=(1.0, 2.0), mean_dwell=(1.0, -1.0))
        with pytest.raises(ValidationError):
            DiurnalProcess(base_rate=5.0, peak_rate=1.0, period=10.0)
        with pytest.raises(ValidationError):
            DiurnalProcess(base_rate=0.0, peak_rate=1.0, period=0.0)


class TestSamplers:
    def test_sizes_positive(self):
        rng = np.random.default_rng(0)
        for sampler in (
            pareto_sizes(1.5, 2.0),
            lognormal_sizes(0.5, 1.0),
            uniform_sizes(1.0, 4.0),
        ):
            assert all(sampler(rng) > 0 for _ in range(200))

    def test_pareto_is_heavy_tailed(self):
        rng = np.random.default_rng(5)
        draws = sorted(pareto_sizes(1.2, 1.0)(rng) for _ in range(2000))
        median, biggest = draws[len(draws) // 2], draws[-1]
        assert biggest > 50 * median

    def test_pareto_cap_clips(self):
        rng = np.random.default_rng(5)
        assert all(
            pareto_sizes(1.2, 1.0, cap=10.0)(rng) <= 10.0 for _ in range(2000)
        )

    def test_slack_models(self):
        rng = np.random.default_rng(0)
        assert proportional_slack(2.0, 4.0)(rng, 8.0) == pytest.approx(4.0)
        jittered = proportional_slack(2.0, 4.0, jitter=0.5)(rng, 8.0)
        assert 4.0 <= jittered <= 6.0
        assert 1.0 <= uniform_slack(1.0, 3.0)(rng, 100.0) <= 3.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            pareto_sizes(shape=0.0)
        with pytest.raises(ValidationError):
            pareto_sizes(scale=2.0, cap=1.0)
        with pytest.raises(ValidationError):
            lognormal_sizes(sigma_log=0.0)
        with pytest.raises(ValidationError):
            uniform_sizes(0.0, 1.0)
        with pytest.raises(ValidationError):
            proportional_slack(factor=0.0)
        with pytest.raises(ValidationError):
            proportional_slack(jitter=-1.0)
        with pytest.raises(ValidationError):
            uniform_slack(2.0, 1.0)


class TestGenerator:
    def test_same_seed_identical_trace(self, ft4):
        first = list(generate_trace(ft4, spec(seed=11)))
        second = list(generate_trace(ft4, spec(seed=11)))
        assert first == second

    def test_different_seeds_differ(self, ft4):
        assert list(generate_trace(ft4, spec(seed=1))) != list(
            generate_trace(ft4, spec(seed=2))
        )

    def test_flows_well_formed(self, ft4):
        flows = list(generate_trace(ft4, spec()))
        assert flows
        assert [f.id for f in flows] == list(range(len(flows)))
        for f in flows:
            assert f.src != f.dst
            assert f.src in ft4.hosts and f.dst in ft4.hosts
            assert f.deadline > f.release > 0.0
        releases = [f.release for f in flows]
        assert releases == sorted(releases)

    def test_is_lazy(self, ft4):
        """A prefix can be consumed without generating the rest."""
        giant = TraceSpec(
            arrivals=PoissonProcess(1000.0), duration=1e6, seed=0
        )
        prefix = list(itertools.islice(generate_trace(ft4, giant), 50))
        assert len(prefix) == 50

    def test_expected_flows(self):
        assert spec(rate=4.0, duration=25.0).expected_flows() == pytest.approx(
            100.0
        )

    def test_materialize(self, ft4):
        flow_set = materialize(generate_trace(ft4, spec()), limit=10)
        assert len(flow_set) == 10

    def test_validation(self, ft4):
        with pytest.raises(ValidationError):
            TraceSpec(duration=0.0)
        bad_size = TraceSpec(size_sampler=lambda rng: 0.0)
        with pytest.raises(ValidationError):
            next(generate_trace(ft4, bad_size))
        bad_slack = TraceSpec(slack_model=lambda rng, size: -1.0)
        with pytest.raises(ValidationError):
            next(generate_trace(ft4, bad_slack))
        with pytest.raises(ValidationError):
            materialize(iter(()))


class TestStore:
    def test_jsonl_round_trip(self, ft4, tmp_path):
        flows = list(generate_trace(ft4, spec()))
        path = str(tmp_path / "trace.jsonl")
        count = write_trace_jsonl(flows, path)
        assert count == len(flows)
        assert list(read_trace_jsonl(path)) == flows

    def test_jsonl_byte_for_byte_reproducible(self, ft4, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_trace_jsonl(generate_trace(ft4, spec(seed=9)), a)
        write_trace_jsonl(generate_trace(ft4, spec(seed=9)), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_jsonl_reader_is_lazy(self, ft4, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(generate_trace(ft4, spec()), path)
        reader = read_trace_jsonl(path)
        assert next(reader).id == 0

    def test_csv_round_trip(self, ft4, tmp_path):
        flows = list(generate_trace(ft4, spec()))
        path = str(tmp_path / "trace.csv")
        count = write_trace_csv(flows, path)
        assert count == len(flows)
        restored = list(read_trace_csv(path))
        assert restored == flows  # ids restored as ints, floats exact

    def test_jsonl_rejects_wrong_version(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind":"trace","version":99}\n')
        with pytest.raises(ValidationError):
            read_trace_jsonl(path)

    def test_jsonl_rejects_wrong_kind(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind":"flows","version":1}\n')
        with pytest.raises(ValidationError):
            read_trace_jsonl(path)

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write("not json\n")
        with pytest.raises(ValidationError):
            read_trace_jsonl(path)

    def test_jsonl_rejects_malformed_body(self, tmp_path):
        """Body corruption surfaces as ValidationError with file:line, not
        raw JSONDecodeError/TypeError (the module's refusal contract)."""
        for body in ("{not json\n", "[1,2,3]\n", '{"id":0,"size":"huge"}\n'):
            path = str(tmp_path / "bad.jsonl")
            with open(path, "w") as handle:
                handle.write('{"kind":"trace","version":1}\n')
                handle.write(body)
            with pytest.raises(ValidationError, match=r"bad\.jsonl:2"):
                list(read_trace_jsonl(path))
        # A fault record failing FaultEvent's own validation.
        with open(path, "w") as handle:
            handle.write('{"kind":"trace","version":1}\n')
            handle.write('{"event": "link_down", "time": 0.5}\n')
        with pytest.raises(ValidationError, match=r"bad\.jsonl:2"):
            list(read_trace_jsonl(path, include_faults=True))

    def test_csv_rejects_malformed_body(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as handle:
            handle.write("#repro-trace:1\n")
            handle.write("id,src,dst,size,release,deadline\n")
            handle.write("0,a,b,huge,0.0,1.0\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:3"):
            list(read_trace_csv(path))

    def test_jsonl_rejects_missing_field(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind":"trace","version":1}\n')
            handle.write('{"id":0,"src":"a","dst":"b","size":1.0}\n')
        with pytest.raises(ValidationError):
            list(read_trace_jsonl(path))

    def test_csv_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as handle:
            handle.write("id,src,dst\n")
        with pytest.raises(ValidationError):
            read_trace_csv(path)

    def test_csv_rejects_commas_in_fields(self, tmp_path):
        from repro.flows import Flow

        flow = Flow(id="a,b", src="x", dst="y", size=1.0, release=0.0, deadline=1.0)
        with pytest.raises(ValidationError):
            write_trace_csv([flow], str(tmp_path / "bad.csv"))

    def test_csv_preserves_string_ids(self, tmp_path):
        from repro.flows import Flow

        flow = Flow(
            id="incast-3", src="x", dst="y", size=1.5, release=0.25, deadline=2.0
        )
        path = str(tmp_path / "named.csv")
        write_trace_csv([flow], path)
        restored = list(read_trace_csv(path))
        assert restored == [flow]
        assert isinstance(restored[0].id, str)

    def test_csv_awkward_ids_round_trip(self, tmp_path):
        """Only canonical int spellings become ints; '007' and '--5' must
        come back as the exact string ids they were (string ids that *are*
        canonical int spellings, like '-5', are the documented lossy case:
        they read back as ints)."""
        from repro.flows import Flow

        flows = [
            Flow(id=i, src="x", dst="y", size=1.0, release=0.0, deadline=1.0)
            for i in ("007", "--5", 7, -5)
        ]
        path = str(tmp_path / "ids.csv")
        write_trace_csv(flows, path)
        restored = list(read_trace_csv(path))
        assert restored == flows
        assert [f.id for f in restored] == ["007", "--5", 7, -5]

    def test_round_trip_survives_awkward_floats(self, tmp_path):
        from repro.flows import Flow

        flow = Flow(
            id=0,
            src="a",
            dst="b",
            size=1.0 / 3.0,
            release=math.pi,
            deadline=math.pi + 1e-9,
        )
        jsonl = str(tmp_path / "f.jsonl")
        csv = str(tmp_path / "f.csv")
        write_trace_jsonl([flow], jsonl)
        write_trace_csv([flow], csv)
        assert list(read_trace_jsonl(jsonl)) == [flow]
        assert list(read_trace_csv(csv)) == [flow]


class TestTraceReader:
    """Seekable byte-offset cursors over the JSONL store."""

    def _write(self, tmp_path, n=20, seed=5):
        from repro.topology import fat_tree
        from repro.traces import TraceReader  # noqa: F401 - import check

        topology = fat_tree(4)
        flows = list(
            generate_trace(
                topology,
                TraceSpec(
                    arrivals=PoissonProcess(4.0),
                    duration=float(n),
                    size_sampler=lognormal_sizes(1.0, 0.5),
                    slack_model=proportional_slack(2.0, 1.0),
                    seed=seed,
                ),
            )
        )
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(flows, path)
        return path, flows

    def test_reader_yields_same_flows_as_plain_iterator(self, tmp_path):
        from repro.traces import TraceReader

        path, flows = self._write(tmp_path)
        with TraceReader(path) as reader:
            assert list(reader) == flows

    def test_cursor_round_trip_at_every_position(self, tmp_path):
        from repro.traces import TraceReader

        path, flows = self._write(tmp_path, n=8)
        cursors = []
        with TraceReader(path) as reader:
            for _ in reader:
                cursors.append(reader.tell())
        assert len(cursors) == len(flows)
        for i, cursor in enumerate(cursors):
            fresh = TraceReader(path)
            fresh.seek(cursor)
            assert list(fresh) == flows[i + 1 :]
            fresh.close()

    def test_seek_zero_and_start_rewind(self, tmp_path):
        from repro.traces import TraceReader

        path, flows = self._write(tmp_path, n=6)
        with TraceReader(path) as reader:
            first = next(iter(reader))
            assert first == flows[0]
            reader.seek(0)
            assert next(iter(reader)) == flows[0]
            reader.seek(reader.start)
            assert list(reader) == flows

    def test_negative_cursor_rejected(self, tmp_path):
        from repro.traces import TraceReader

        path, _ = self._write(tmp_path, n=3)
        with TraceReader(path) as reader:
            with pytest.raises(ValidationError):
                reader.seek(-1)

    def test_bad_header_rejected(self, tmp_path):
        from repro.traces import TraceReader

        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind":"nope"}\n')
        with pytest.raises(ValidationError):
            TraceReader(path)

    def test_mid_line_cursor_fails_loudly(self, tmp_path):
        from repro.traces import TraceReader

        path, _ = self._write(tmp_path, n=5)
        with TraceReader(path) as reader:
            next(iter(reader))
            good = reader.tell()
        broken = TraceReader(path)
        broken.seek(good + 3)  # mid-line: must not yield a corrupt flow
        with pytest.raises(ValidationError):
            list(broken)
        broken.close()
