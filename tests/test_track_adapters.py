"""The table-driven tracks loader against the per-adapter reference loader,
on generated files with and without faults."""

import csv

import numpy as np
import pytest

from oracle_helpers import reference_load_tracks
from trajformer.data import ADAPTERS, load_tracks

# column order, and the role of each column, of every schema
COLUMNS = {
    "canonical": ["scene_id", "agent_id", "agent_type", "t", "x_m", "y_m", "x_px", "y_px"],
    "dut": ["id", "frame", "label", "x_est", "y_est", "vx_est", "vy_est", "x_px", "y_px"],
    "ind": ["trackId", "frame", "xCenter", "yCenter", "xVelocity", "yVelocity", "class"],
}
ROLES = {  # agent id, type label, time
    "canonical": ("agent_id", "agent_type", "t"),
    "dut": ("id", "label", "frame"),
    "ind": ("trackId", "class", "frame"),
}
VALID_LABELS = {
    "canonical": ["pedestrian", "vehicle", "cyclist"],
    "dut": ["pedestrian", "ped", "vehicle", "car"],
    "ind": ["pedestrian", "car", "truck_bus", "bicycle"],
}
# valid labels, their case and space variants, and labels of other schemas
ODD_LABELS = ["Pedestrian", " ped ", "CAR", " Bicycle", "truck_bus", "cyclist", "bus", ""]
BAD_NUMBERS = ["nan", "inf", "-inf", "1e999", "x", "", " 3.5", "0x10"]
BAD_IDS = ["", ".", "..", "../up", "x/ped0", "nul\0id"]
MUTATIONS = ["label", "number", "short", "time", "scene", "header", "extra", "several", "id"]


def generate(rng, adapter):
    """(header, rows): interleaved agents with increasing times, then 0-2 faults."""
    agent_col, type_col, time_col = ROLES[adapter]
    valid = VALID_LABELS[adapter]
    per_agent = []
    for a in range(rng.integers(1, 5)):
        label = valid[rng.integers(len(valid))]
        times = np.cumsum(rng.integers(1, 4, size=rng.integers(1, 7)))
        agent_rows = []
        for step in times:
            row = {c: repr(float(rng.normal(0, 5))) for c in COLUMNS[adapter]}
            row.update({agent_col: f"a{a}", type_col: label, "scene_id": "s0"})
            # frame columns hold frame numbers; canonical times are seconds
            row[time_col] = str(int(step)) if time_col == "frame" else repr(float(step) * 0.1)
            agent_rows.append(row)
        per_agent.append(agent_rows)
    rows = []
    while any(per_agent):
        pending = [r for r in per_agent if r]
        rows.append(pending[rng.integers(len(pending))].pop(0))
    header = list(COLUMNS[adapter])
    for mutation in rng.choice(MUTATIONS, size=rng.integers(0, 3)):
        row = rows[rng.integers(len(rows))]
        if mutation == "label":
            labels = valid + ODD_LABELS
            row[type_col] = labels[rng.integers(len(labels))]
        elif mutation == "number":
            numeric = [c for c in header if c not in (agent_col, type_col, "scene_id")]
            row[numeric[rng.integers(len(numeric))]] = BAD_NUMBERS[rng.integers(len(BAD_NUMBERS))]
        elif mutation == "short":
            row["_short"] = True
        elif mutation == "time":
            row[time_col] = rows[rng.integers(len(rows))][time_col]
        elif mutation == "scene":
            row["scene_id"] = "s1"
        elif mutation == "header" and rng.random() < 0.3:
            header.remove(header[rng.integers(len(header))])
        elif mutation == "extra":
            header.append("note")
        elif mutation == "id":  # ids name output files
            row[agent_col] = BAD_IDS[rng.integers(len(BAD_IDS))]
        elif mutation == "several":  # faults in several cells of one row: which is reported
            for c in rng.choice(header, size=rng.integers(2, len(header))):
                row[c] = {type_col: "bus", "scene_id": "s1", agent_col: row[agent_col]}.get(
                    c, BAD_NUMBERS[rng.integers(len(BAD_NUMBERS))])
    return header, rows


def write(path, header, rows):
    path.parent.mkdir(parents=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            cells = [row.get(c, "n") for c in header]
            writer.writerow(cells[:-1] if row.get("_short") else cells)


def outcome(loader, path, adapter):
    try:
        tracks, scene_id = loader(path, adapter, 0.25)
    except Exception as exc:
        return type(exc), str(exc)
    return scene_id, [(t.agent_id, t.agent_type, t.t.shape, t.t.tobytes(), t.xy_m.shape,
                       t.xy_m.tobytes(), t.xy_px.shape, t.xy_px.tobytes()) for t in tracks]


def test_the_table_names_every_schema_by_its_columns():
    assert list(ADAPTERS) == list(COLUMNS)
    for name, schema in ADAPTERS.items():
        assert list(schema.header) == COLUMNS[name]


@pytest.mark.parametrize("adapter", list(COLUMNS))
def test_table_loader_matches_reference_loader(tmp_path, adapter):
    rng = np.random.default_rng(["canonical", "dut", "ind"].index(adapter))
    faults = set()
    loaded = 0
    for i in range(200):
        path = tmp_path / f"scene_{i}" / "tracks.csv"
        write(path, *generate(rng, adapter))
        expected = outcome(reference_load_tracks, path, adapter)
        assert outcome(load_tracks, path, adapter) == expected, path.read_text()
        if isinstance(expected[1], str):  # "<path>[ row <n>]: <fault> ..."
            faults.add(expected[1].split(": ", 1)[1].split()[0])
        else:
            loaded += 1
    assert loaded >= 40
    expected_faults = {"unknown", "bad", "non-finite", "fewer", "non-monotone", "agent",
                       "missing", ROLES[adapter][0]} | ({"multiple"} if adapter == "canonical"
                                                      else set())
    assert expected_faults <= faults, faults


@pytest.mark.parametrize("adapter", ["bogus", "canonical"])
def test_unknown_adapter_and_missing_file_match_reference(tmp_path, adapter):
    path = tmp_path / "absent.csv"
    assert outcome(load_tracks, path, adapter) == outcome(reference_load_tracks, path, adapter)
