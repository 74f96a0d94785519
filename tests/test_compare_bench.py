"""The CI benchmark regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
COMPARATOR = REPO / "benchmarks" / "compare_bench.py"


def load_comparator():
    spec = importlib.util.spec_from_file_location("compare_bench", COMPARATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = {
    "kernels": {
        "test_kernel_throughput[roll-float64-D3Q19]": {"mflups": 3.0},
        "test_kernel_throughput[roll-float32-D3Q19]": {"mflups": 8.0},
        "test_kernel_throughput[planned-float64-D3Q19]": {"mflups": 6.0},
        "test_distributed_throughput[planned-float64-D3Q19]": {"mflups": 5.0},
        "test_distributed_throughput[planned-float64-D3Q39]": {"mflups": 1.5},
        "test_distributed_throughput[planned-float32-D3Q19]": {"mflups": 9.0},
        "test_distributed_overhead": {"mean_s": 0.004},
    }
}


class TestSelection:
    def test_single_token_excludes_float32(self):
        module = load_comparator()
        assert module.kernel_mflups(RECORD, "roll") == {"D3Q19": 3.0}

    def test_plus_tokens_must_all_match(self):
        """planned+distributed separates the slab rows from the
        single-domain planned rows (both contain 'planned')."""
        module = load_comparator()
        assert module.kernel_mflups(RECORD, "planned+distributed") == {
            "D3Q19": 5.0,
            "D3Q39": 1.5,
        }

    def test_plain_planned_would_collide_by_design(self):
        """Documenting why the gate uses the + form: a bare 'planned'
        matches both suites (last match wins per lattice)."""
        module = load_comparator()
        found = module.kernel_mflups(RECORD, "planned")
        assert set(found) == {"D3Q19", "D3Q39"}


#: Schema-5 sparse rows alongside a dense planned row: the dense gate
#: must not absorb the sparse rows by the 'planned' substring, and the
#: sparse gate must key each fill separately.
SPARSE_RECORD = {
    "kernels": {
        "test_kernel_throughput[planned-float64-D3Q19]": {
            "mflups": 6.0,
            "kernel": "planned",
        },
        "test_sparse_kernel_throughput[sparse-planned-fill0.25]": {
            "mflups": 6.4,
            "kernel": "sparse-planned",
            "dtype": "float64",
            "lattice": "D3Q19",
            "fill": 0.25,
        },
        "test_sparse_kernel_throughput[sparse-planned-fill1]": {
            "mflups": 5.7,
            "kernel": "sparse-planned",
            "dtype": "float64",
            "lattice": "D3Q19",
            "fill": 1.0,
        },
        "test_sparse_kernel_throughput[sparse-legacy-fill0.25]": {
            "mflups": 2.1,
            "kernel": "sparse-legacy",
            "dtype": "float64",
            "lattice": "D3Q19",
            "fill": 0.25,
        },
    }
}


class TestSparseSelection:
    def test_dense_gate_excludes_sparse_rows(self):
        """A bare 'planned' gate must not pick up sparse-planned rows:
        their B(Q) includes gather-table traffic, so the MFLUP/s are
        not comparable with the dense kernel's."""
        module = load_comparator()
        assert module.kernel_mflups(SPARSE_RECORD, "planned") == {"D3Q19": 6.0}

    def test_sparse_gate_keys_each_fill(self):
        module = load_comparator()
        assert module.kernel_mflups(SPARSE_RECORD, "sparse-planned") == {
            "D3Q19@fill0.25": 6.4,
            "D3Q19@fill1": 5.7,
        }

    def test_sparse_rows_compare_per_fill(self):
        module = load_comparator()
        current = {
            "kernels": {
                "test_sparse_kernel_throughput[sparse-planned-fill0.25]": {
                    "mflups": 5.9,
                    "kernel": "sparse-planned",
                    "lattice": "D3Q19",
                    "fill": 0.25,
                },
            }
        }
        ok, lines = module.compare(SPARSE_RECORD, current, "sparse-planned", 0.30)
        assert ok and len(lines) == 1
        assert "fill0.25" in lines[0]


class TestCompare:
    def test_within_tolerance_passes(self):
        module = load_comparator()
        current = {
            "kernels": {
                "test_distributed_throughput[planned-float64-D3Q19]": {
                    "mflups": 4.0
                },
                "test_distributed_throughput[planned-float64-D3Q39]": {
                    "mflups": 1.2
                },
            }
        }
        ok, lines = module.compare(RECORD, current, "planned+distributed", 0.30)
        assert ok
        assert len(lines) == 2

    def test_regression_beyond_tolerance_fails(self):
        module = load_comparator()
        current = {
            "kernels": {
                "test_distributed_throughput[planned-float64-D3Q19]": {
                    "mflups": 2.0
                },
            }
        }
        ok, lines = module.compare(RECORD, current, "planned+distributed", 0.30)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_no_comparable_entries_fails_loudly(self):
        module = load_comparator()
        ok, lines = module.compare(RECORD, {"kernels": {}}, "roll", 0.30)
        assert not ok
        assert "no comparable" in lines[0]


#: Bm of the probe row below: 12 GB/s puts the D3Q19/float64 ceiling
#: at 12e9 / 456 / 1e6 = 26.3 MFLUP/s.
BANDWIDTH = 12e9


def probed_record(mflups: float) -> dict:
    """A fresh bench record: the copy probe row, one dense row at
    ``mflups`` and rows the Eq. 5 check skips."""
    return {
        "kernels": {
            "test_copy_bandwidth": {"mean_s": 1e-7, "copy_bandwidth": BANDWIDTH},
            "test_kernel_throughput[roll-float64-D3Q19]": {
                "mflups": mflups,
                "kernel": "roll",
                "dtype": "float64",
                "bytes_per_cell": 456,
            },
            # A sparse row (fill column) sits on a modelled B(Q, fill),
            # not a bound, so it is never checked, however fast.
            "test_sparse_kernel_throughput[sparse-planned-fill0.5]": {
                "mflups": 1e6,
                "kernel": "sparse-planned",
                "fill": 0.5,
                "bytes_per_cell": 1140.0,
            },
            # A row without bytes_per_cell (the distributed ladder).
            "test_distributed_throughput[planned-float64-D3Q19]": {
                "mflups": 1e6,
            },
            "test_distributed_overhead": {"mean_s": 0.004},
        }
    }


class TestRooflineCheck:
    def test_prints_the_efficiency_of_every_dense_row(self):
        module = load_comparator()
        ok, lines = module.roofline_check(probed_record(13.0))
        assert ok
        assert lines == [
            "Bm 12.00 GB/s (copy probe)",
            "Eq. 5 efficiency test_kernel_throughput[roll-float64-D3Q19]: "
            "0.494 ok",
        ]

    def test_row_above_the_ceiling_fails(self):
        module = load_comparator()
        ok, lines = module.roofline_check(probed_record(27.0))
        assert not ok
        assert "ABOVE THE Eq. 5 CEILING" in lines[-1]

    def test_record_without_a_probe_row_is_not_checked(self):
        """The committed baselines carry no Bm."""
        module = load_comparator()
        for n in (3, 4, 5, 9):
            record = json.loads((REPO / f"BENCH_PR{n}.json").read_text())
            assert module.roofline_check(record) == (True, [])

    def test_non_positive_bandwidth_fails(self):
        module = load_comparator()
        record = probed_record(1.0)
        record["kernels"]["test_copy_bandwidth"]["copy_bandwidth"] = 0
        ok, _ = module.roofline_check(record)
        assert not ok

    def test_main_gates_the_current_record_on_the_ceiling(self, tmp_path, capsys):
        module = load_comparator()
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(probed_record(13.0)))
        for mflups, code in ((13.0, 0), (27.0, 1)):
            current = tmp_path / f"current-{mflups}.json"
            current.write_text(json.dumps(probed_record(mflups)))
            args = [str(baseline), str(current), "--kernel", "roll"]
            assert module.main(args) == code
            out = capsys.readouterr().out
            assert "Eq. 5 efficiency" in out

    def test_default_gates_the_single_domain_planned_rows(self, tmp_path, capsys):
        """The default kernel selects the planned kernel_throughput rows
        only: neither the distributed planned rows nor float32."""
        module = load_comparator()
        record = tmp_path / "record.json"
        record.write_text(json.dumps(RECORD))
        assert module.main([str(record), str(record)]) == 0
        out = capsys.readouterr().out
        assert "planned+kernel_throughput D3Q19: 6.00 -> 6.00" in out
        assert "D3Q39" not in out

    @pytest.mark.parametrize("flag", ["--model=c.json", "--model-slack=0.5"])
    def test_model_gate_flags_are_gone(self, flag, tmp_path, capsys):
        module = load_comparator()
        record = tmp_path / "record.json"
        record.write_text(json.dumps(probed_record(13.0)))
        with pytest.raises(SystemExit) as exc:
            module.main([str(record), str(record), flag])
        assert exc.value.code == 2
