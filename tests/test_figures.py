"""The paper's three figures: the critical-difference diagram, class
activation maps and the MDS scatter.  Their bytes are pinned at fixed
inputs, and each must be well-formed XML."""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tsclab import explain as E
from tsclab import stats as S


def cd_report(ranks, cliques, friedman=None):
    # the diagram draws the classifiers, their ranks and the cliques only
    return S.ComparisonReport(
        classifiers=list(ranks), ranks=ranks, friedman=friedman, pairwise_p={},
        holm_adjusted={}, holm_reject={}, cliques=cliques, alpha=0.05, n_datasets=10,
        aggregation="mean")


def two_classifiers():
    return cd_report({"fcn": 1.25, "mlp": 1.75}, [])


def five_classifiers_stacked_cliques():
    # the first two bars overlap and the third overlaps both: three levels
    ranks = {"resnet": 1.4, "fcn": 2.05, "encoder": 2.6, "mcnn": 3.55, "mlp": 4.4}
    cliques = [("resnet", "fcn", "encoder"), ("encoder", "mcnn"), ("fcn", "encoder", "mcnn"),
               ("mcnn", "mlp")]
    return cd_report(ranks, cliques, friedman=(12.5, 0.014, True))


def mds_embedding(n):
    t = np.arange(n, dtype=np.float64)
    return E.MdsEmbedding(np.stack([np.cos(0.7 * t) * (1 + t), np.sin(1.3 * t) - 0.1 * t], 1),
                          0.0)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = {
    "cd_two_classifiers": (
        lambda: S.render_cd_diagram(two_classifiers()),
        "36fca94bd5be33bc5cc11da864c7d58e6dc76f9aba9c31a401cc729d9e352a9a"),
    "cd_five_classifiers_stacked_cliques": (
        lambda: S.render_cd_diagram(five_classifiers_stacked_cliques()),
        "5ab09fa079a141798eaaf1b7b5ab8df59dcc840c628285cdce0e985d2fb4cbd0"),
    "cam_one_step": (
        lambda: E.export_cam_svg(np.array([0.5]), np.array([0.0])),
        "e5d2c8a6f733a52c09020ef087ffe84b497b1328ab5ab16c388a827b1b954498"),
    "cam_two_steps": (
        lambda: E.export_cam_svg(np.array([-1.0, 2.0]), np.array([0.25, 1.0])),
        "152046a17f7c651ee369f6ad17cb7e6f3a98458be325e0e19bd41cd4df3f2a2c"),
    "cam_constant_series": (
        lambda: E.export_cam_svg(np.full(6, 3.0), np.linspace(0.0, 1.0, 6)),
        "1889fcac035e35bd51fca3d8f92c8cd94266f48e2a5beb456be2e8ae9cd1a39d"),
    "mds_one_class": (
        lambda: E.export_mds_svg(mds_embedding(4), np.zeros(4, dtype=int)),
        "0fd934a458c43059ff300ae197b64bcb21bcda98f6120455384a90db113a2ec2"),
    "mds_eleven_classes": (
        lambda: E.export_mds_svg(mds_embedding(13), np.arange(13) % 11),
        "67f538dcacf8d3c493a20a32e08222e73be9c5b60438bb500a543a076c58ce93"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_figure_bytes_are_pinned(name):
    draw, digest = PINNED[name]
    assert sha(draw()) == digest


def test_cd_cliques_stack_on_three_levels():
    svg = S.render_cd_diagram(five_classifiers_stacked_cliques())
    bar_rows = {line.split('y1="')[1].split('"')[0] for line in svg.splitlines()
                if 'stroke-width="5"' in line}
    assert len(bar_rows) == 3


def test_eleven_classes_wrap_the_palette():
    svg = E.export_mds_svg(mds_embedding(13), np.arange(13) % 11)
    # points 0 and 11 (class 0) and 10 (class 10), and two legend swatches
    assert svg.count(f'fill="{E._CLASS_PALETTE[0]}"') == 3 + 2


def test_every_figure_parses_as_xml_with_markup_in_the_names():
    ranks = {"a&b": 1.2, "c<d": 1.9, 'e"f>': 2.9}
    report = cd_report(ranks, [("a&b", "c<d")], friedman=(4.0, 0.13, False))
    cd = ET.fromstring(S.render_cd_diagram(report))
    texts = [t.text for t in cd.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b (1.2000)" in texts and "c<d (1.9000)" in texts
    assert 'e"f> (2.9000)' in texts
    titles = [t.text for t in cd.iter("{http://www.w3.org/2000/svg}title")]
    assert titles == ["a&b, c<d"]
    cam = ET.fromstring(E.export_cam_svg(np.array([0.0, 1.0, 0.5]), np.array([0.0, 0.5, 1.0])))
    assert len(cam.findall("{http://www.w3.org/2000/svg}line")) == 2
    mds = ET.fromstring(E.export_mds_svg(mds_embedding(5), np.array([0, 1, 2, 0, 1])))
    assert len(mds.findall("{http://www.w3.org/2000/svg}circle")) == 5 + 3
