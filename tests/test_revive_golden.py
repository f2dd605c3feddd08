"""Pinned revive figures and decoder equivalence.

``data/revive_figures_v1.json`` holds the simulated figures of every
checkpoint revive of the 80-unit desktop recording — cached, uncached
and demand-paged (plus the demand pager's fault-everything totals) —
and ``data/image_decode_v1.json`` the decoded contents of the golden
v2/v3 image fixtures.  Both were captured before the revive path read
chain images as bare page maps and the image codec moved onto the
buffer decoder; every figure must reproduce exactly.

Regenerate (only when a figure is *meant* to change)::

    PYTHONPATH=src python tests/test_revive_golden.py
"""

import json
import os
import sys

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIGURES = os.path.join(DATA_DIR, "revive_figures_v1.json")
DECODED = os.path.join(DATA_DIR, "image_decode_v1.json")
UNITS = 80

#: ``(mode, revive kwargs)`` in capture order.
MODES = (
    ("cached", {"cached": True}),
    ("uncached", {"cached": False}),
    ("demand", {"cached": False, "demand_paging": True}),
)


def capture_figures():
    """Revive every checkpoint of a fresh 80-unit desktop recording in
    each mode; returns ``{mode: {checkpoint id: figures}}``."""
    from repro.replay.replayer import record_scenario

    dejaview = record_scenario("desktop", units=UNITS).dejaview
    reviver = dejaview.reviver
    kernel = reviver.kernel
    out = {}
    for mode, kwargs in MODES:
        rows = out[mode] = {}
        for record in dejaview.engine.history:
            checkpoint_id = record.checkpoint_id
            result = reviver.revive(checkpoint_id, **kwargs)
            row = {
                "duration_us": result.duration_us,
                "bytes_read": result.bytes_read,
                "images_accessed": result.images_accessed,
                "pages_restored": result.pages_restored,
                "required_images": list(result.required_images),
            }
            if result.pager is not None:
                watch = reviver.clock.stopwatch()
                result.pager.touch_all()
                row["touch_all_us"] = watch.elapsed_us
                row["pages_faulted"] = result.pager.pages_loaded
                row["bytes_streamed"] = result.pager.bytes_streamed
            rows[str(checkpoint_id)] = row
            kernel.destroy_container(result.container)
    return out


def _fixture(name):
    with open(os.path.join(DATA_DIR, name), "rb") as handle:
        return handle.read()


def _key(key):
    return "%d:%d:%d" % key


def describe_image(image):
    """A JSON-able, order-independent rendering of a decoded image."""
    return {
        "checkpoint_id": image.checkpoint_id,
        "timestamp_us": image.timestamp_us,
        "container_name": image.container_name,
        "parent_id": image.parent_id,
        "full": image.full,
        "fs_txn": image.fs_txn,
        "processes": image.processes,
        "regions": {str(vpid): regs for vpid, regs in image.regions.items()},
        "pages": {_key(k): bytes(v).hex()
                  for k, v in sorted(image.pages.items())},
        "page_digests": {_key(k): bytes(v).hex()
                         for k, v in sorted(image.page_digests.items())},
        "page_locations": {_key(k): v
                           for k, v in sorted(image.page_locations.items())},
        "relinked_files": [list(item) for item in image.relinked_files],
    }


def capture_decoded():
    from repro.checkpoint.image import CheckpointImage

    return {name: describe_image(CheckpointImage.deserialize(_fixture(name)))
            for name in ("ckpt_v2.bin", "ckpt_v3.bin")}


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_revive_figures_match_the_pinned_capture():
    assert capture_figures() == _load(FIGURES)


def test_decoded_fixtures_match_the_pinned_decode():
    assert capture_decoded() == _load(DECODED)


def test_page_maps_match_the_decoded_fixtures():
    """The page map the chain read decodes (metadata skipped) equals the
    full decode's pages (v2) or page digests (v3)."""
    from repro.checkpoint.image import CheckpointImage, page_map

    v2 = CheckpointImage.deserialize(_fixture("ckpt_v2.bin"))
    assert page_map(_fixture("ckpt_v2.bin")) == (False, v2.pages)
    v3 = CheckpointImage.deserialize(_fixture("ckpt_v3.bin"))
    assert page_map(_fixture("ckpt_v3.bin")) == (True, v3.page_digests)


if __name__ == "__main__":
    for path, capture in ((FIGURES, capture_figures),
                          (DECODED, capture_decoded)):
        with open(path, "w") as handle:
            json.dump(capture(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote", path, file=sys.stderr)
