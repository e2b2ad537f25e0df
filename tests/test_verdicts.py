"""Window evidence types."""

import dataclasses
import json

import pytest

from koethe.verdicts import (
    PointwiseCertificate,
    TameCertificate,
    UniformCertificate,
    Window,
)


def test_window_round_trips_every_field():
    win = Window(k_max=5, m_max=7, n_max=512, l_slack=2, subadd_m_max=16,
                 checkpoints=(64, 128, 512), plateau_tol=1e-5, growth_tol=0.5,
                 series_tail_rel=1e-10, series_growth_tol=0.05, dense_cap=64)
    assert all(getattr(win, f.name) != f.default for f in dataclasses.fields(Window))
    assert Window.from_json(json.loads(json.dumps(win.to_json()))) == win


@pytest.mark.parametrize("make, name, value", [
    (PointwiseCertificate, "entries", (2, 0.5)),
    (lambda d: UniformCertificate(3, d), "log_c", 0.5),
    (lambda d: TameCertificate(1, d), "log_c", 0.5),
], ids=["pointwise", "uniform", "fixed_map"])
def test_certificate_mappings_are_read_only_copies(make, name, value):
    source = {2: value, 1: value}
    cert = make(source)
    text = json.dumps(cert.to_json())
    source.clear()
    mapping = getattr(cert, name)
    with pytest.raises(TypeError):
        mapping[5] = value
    assert json.dumps(cert.to_json()) == text
    assert cert == make({2: value, 1: value})
    assert list(mapping) == [2, 1]
