"""Window evidence types."""

import dataclasses
import json

from koethe.verdicts import Window


def test_window_round_trips_every_field():
    win = Window(k_max=5, m_max=7, n_max=512, l_slack=2, subadd_m_max=16,
                 checkpoints=(64, 128, 512), plateau_tol=1e-5, growth_tol=0.5,
                 series_tail_rel=1e-10, series_growth_tol=0.05, dense_cap=64)
    assert all(getattr(win, f.name) != f.default for f in dataclasses.fields(Window))
    assert Window.from_json(json.loads(json.dumps(win.to_json()))) == win
