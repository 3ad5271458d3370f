import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from dpgrr.config import load_config

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


@pytest.fixture(scope="module")
def copy_config():
    spec = importlib.util.spec_from_file_location(
        "output_tree", REPO / "scripts" / "output_tree.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.copy_config


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_a_copy_changes_only_its_data_path_store_and_diagnostics(copy_config, name):
    shipped = yaml.safe_load((CONFIGS / name).read_text())
    shipped.pop("fixtures", None)
    libsvm = shipped["dataset"].get("libsvm")
    for diagnostics, cadence in ((False, None), (True, None), (True, 7)):
        raw = copy_config(CONFIGS / name, "/link", "store.json", diagnostics, cadence)
        assert raw.pop("fixtures") == "store.json"
        if diagnostics:
            assert raw.pop("diagnostics") == {"record_v": True, "record_sigma_star": True}
        if cadence is not None:
            assert raw.pop("snapshot_cadence") == cadence
        if libsvm is not None:
            copied = raw["dataset"]["libsvm"]
            assert copied["path"] == f"/link/configs/{libsvm['path']}"
            copied["path"] = libsvm["path"]
        assert raw == shipped


def test_a_copy_beside_a_link_reads_the_linked_tree(copy_config, tmp_path):
    # the copies of both output sets: the libsvm data through the link, the
    # empty store below the copy, the committed store through the link
    link = tmp_path / "tree"
    link.symlink_to(REPO, target_is_directory=True)
    empty = copy_config(CONFIGS / "a9a_subset.yaml", str(link), "fixtures/oracle.json")
    committed = copy_config(CONFIGS / "a9a_subset.yaml", str(link),
                            f"{link}/configs/fixtures/oracle.json", diagnostics=True)
    for raw, store in ((empty, tmp_path / "fixtures" / "oracle.json"),
                       (committed, CONFIGS / "fixtures" / "oracle.json")):
        copy = tmp_path / "copy.yaml"
        copy.write_text(json.dumps(raw))
        cfg = load_config(copy)
        data = cfg.base_dir / cfg.dataset.path
        assert data.resolve() == (CONFIGS / "data" / "a9a_subset.libsvm").resolve()
        assert cfg.fixtures_path().resolve() == store.resolve()
        diagnostics = (cfg.diagnostics.record_v, cfg.diagnostics.record_sigma_star)
        assert diagnostics == (raw is committed,) * 2
