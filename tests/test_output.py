import csv
import json
import math

import numpy as np
import pytest

from growthdiff.exact import build_series, series_to_csv
from growthdiff.motion import PhysicsParams, SeparableMotion
from growthdiff.output import write_csv, write_json


def _reference_csv(path, header, blocks):
    # Reference format: csv.writer over per-field "%.17g" strings.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            for row in block:
                writer.writerow(["%.17g" % v for v in row])


@pytest.fixture
def blocks():
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
               math.nan, 1.0, 0.1, -2.5e-17]
    first = np.reshape(special, (4, 3))
    second = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
    return [first, second, np.empty((0, 3))]


class TestWriteCsv:
    def test_bytes_match_the_csv_writer_reference(self, tmp_path, blocks):
        header = ["t", "xi", "value"]
        write_csv(tmp_path / "out.csv", header, iter(blocks))
        _reference_csv(tmp_path / "ref.csv", header, blocks)
        data = (tmp_path / "out.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        assert data.startswith(b"t,xi,value\r\n") and data.endswith(b"\r\n")

    def test_fields_read_back_as_the_same_double(self, tmp_path, blocks):
        write_csv(tmp_path / "out.csv", ["a", "b", "c"], blocks)
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = np.concatenate(blocks)
        got = np.array([[float(v) for v in row] for row in rows])
        assert got.shape == expected.shape
        # Bit patterns compare -0.0, the subnormal and nan exactly.
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_no_blocks_write_only_the_header(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["x", "y"], [])
        assert (tmp_path / "out.csv").read_bytes() == b"x,y\r\n"

    def test_series_with_no_times_is_header_only(self, tmp_path):
        motion = SeparableMotion.fixed_length(PhysicsParams(1.0, 1.0), math.pi)
        sol = build_series(motion, np.sin, grid_size=128, num_modes=4)
        series_to_csv(sol, tmp_path / "s.csv", np.linspace(0.0, math.pi, 5), [])
        assert (tmp_path / "s.csv").read_bytes() == b"x,xi,t,psi,u,w\r\n"


class TestWriteJson:
    def test_numpy_values_write_as_plain_python(self, tmp_path):
        values = [0.1, 1.0 / 3.0, -2.5e-300, 1e308]
        document = {
            "scalar": np.float64(1.0 / 7.0),
            "count": np.int64(42),
            "array": np.array(values),
            "pair": (np.float64(0.5), 3),
            "nested": {"ratio": np.float64(math.pi), "flag": True, "none": None},
        }
        plain = {
            "scalar": 1.0 / 7.0,
            "count": 42,
            "array": values,
            "pair": [0.5, 3],
            "nested": {"ratio": math.pi, "flag": True, "none": None},
        }
        write_json(tmp_path / "doc.json", document)
        text = (tmp_path / "doc.json").read_text()
        assert text == json.dumps(plain, indent=2) + "\n"
        assert json.loads(text) == plain

    def test_unknown_objects_are_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "doc.json", {"bad": object()})
