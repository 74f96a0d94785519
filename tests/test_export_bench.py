"""The CI benchmark exporter (benchmarks/export_bench.py)."""

import importlib.util
import json
from pathlib import Path

EXPORTER = Path(__file__).resolve().parent.parent / "benchmarks" / "export_bench.py"


def load_exporter():
    spec = importlib.util.spec_from_file_location("export_bench", EXPORTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {
    "machine_info": {
        "python_version": "3.12.0",
        "cpu": {"brand_raw": "Test CPU"},
        "node": "bench-host",
    },
    "benchmarks": [
        {
            "name": "test_kernel_throughput[RollKernel-D3Q19]",
            "stats": {"mean": 0.01},
            "extra_info": {"mflups": 3.28, "bytes_per_cell": 456},
        },
        {
            "name": "test_d3q39_costs_about_double",
            "stats": {"mean": 0.0001},
            "extra_info": {"measured_ratio": 2.4, "paper_ratio": 2.05},
        },
    ],
}


class TestExport:
    def test_record_shape(self):
        record = load_exporter().export(REPORT)
        assert record["schema"] == 5
        # No fullname in the report -> the legacy suite-name fallback.
        assert record["suite"] == "bench_kernels_real"
        assert record["cpu"] == "Test CPU"
        assert record["host"] == "bench-host"
        assert record["cpu_count"] >= 1
        kernels = record["kernels"]
        assert kernels["test_kernel_throughput[RollKernel-D3Q19]"] == {
            "mean_s": 0.01,
            "mflups": 3.28,
            "bytes_per_cell": 456,
            "dtype": "float64",
        }
        assert "measured_ratio" in kernels["test_d3q39_costs_about_double"]
        # Non-throughput rows are not stamped with a dtype.
        assert "dtype" not in kernels["test_d3q39_costs_about_double"]

    def test_dtype_from_name_and_extra_info(self):
        report = {
            "machine_info": {},
            "benchmarks": [
                {
                    "name": "test_kernel_throughput[planned-float32-D3Q19]",
                    "stats": {"mean": 0.005},
                    "extra_info": {"mflups": 9.7},
                },
                {
                    "name": "test_kernel_throughput[planned-D3Q19]",
                    "stats": {"mean": 0.005},
                    "extra_info": {"mflups": 5.8, "dtype": "float32"},
                },
            ],
        }
        kernels = load_exporter().export(report)["kernels"]
        assert (
            kernels["test_kernel_throughput[planned-float32-D3Q19]"]["dtype"]
            == "float32"
        )
        # An explicit extra-info dtype is never overridden by the name.
        assert kernels["test_kernel_throughput[planned-D3Q19]"]["dtype"] == "float32"

    def test_empty_report_exports_no_kernels(self):
        assert load_exporter().export({"benchmarks": []})["kernels"] == {}

    def test_suite_detected_from_fullname(self):
        """Schema 5: the suite field names the bench module that ran."""
        report = {
            "machine_info": {},
            "benchmarks": [
                {
                    "name": "test_sparse_kernel_throughput[sparse-planned-fill0.5]",
                    "fullname": (
                        "benchmarks/bench_sparse_kernels.py::"
                        "test_sparse_kernel_throughput[sparse-planned-fill0.5]"
                    ),
                    "stats": {"mean": 0.003},
                    "extra_info": {
                        "mflups": 5.6,
                        "kernel": "sparse-planned",
                        "dtype": "float64",
                        "fill": 0.5,
                        "bytes_per_cell": 1140.0,
                    },
                },
            ],
        }
        record = load_exporter().export(report)
        assert record["suite"] == "bench_sparse_kernels"
        # The fill column flows through untouched (compare_bench keys
        # sparse rows per fill on it).
        entry = record["kernels"][
            "test_sparse_kernel_throughput[sparse-planned-fill0.5]"
        ]
        assert entry["fill"] == 0.5
        assert entry["bytes_per_cell"] == 1140.0


    def test_copy_bandwidth_probe_row_keeps_the_schema(self):
        """The probe row's Bm rides in extra_info, so the record keeps
        schema 5 and the row gets no throughput fields."""
        report = {
            "benchmarks": [
                {
                    "name": "test_copy_bandwidth",
                    "stats": {"mean": 1e-7},
                    "extra_info": {"copy_bandwidth": 12700000000},
                }
            ]
        }
        record = load_exporter().export(report)
        assert record["schema"] == 5
        assert record["kernels"]["test_copy_bandwidth"] == {
            "mean_s": 1e-7,
            "copy_bandwidth": 12700000000,
        }


class TestMain:
    def test_writes_artifact_and_prints_mflups(self, tmp_path, capsys):
        module = load_exporter()
        report = tmp_path / "report.json"
        out = tmp_path / "BENCH_PR3.json"
        report.write_text(json.dumps(REPORT))
        assert module.main([str(report), str(out)]) == 0
        captured = capsys.readouterr().out
        assert "2 benchmark(s)" in captured
        assert "3.28 MFLUP/s" in captured
        record = json.loads(out.read_text())
        assert record["schema"] == 5
        assert record["host"] == "bench-host"
        assert len(record["kernels"]) == 2

    def test_usage_error(self, capsys):
        assert load_exporter().main(["just-one-arg"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_empty_report_fails(self, tmp_path, capsys):
        module = load_exporter()
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"benchmarks": []}))
        assert module.main([str(report), str(tmp_path / "out.json")]) == 1
        assert "no benchmarks" in capsys.readouterr().err
