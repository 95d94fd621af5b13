import xml.etree.ElementTree as ET

import numpy as np

from toilcast.svgplot import line_plot_svg


def test_title_and_labels_are_escaped(tmp_path):
    # a checkpoint named "a&b" used to give an eval plot that no XML parser reads
    x = 1_600_000_000 + 300 * np.arange(5)
    series = [{"label": "measured <'raw'>", "values": np.arange(5.0)},
              {"label": "a&b", "values": np.arange(5.0) + 1}]
    band = {"lower": np.zeros(5), "upper": np.ones(5), "label": "PI <1&99>"}
    path = tmp_path / "plot.svg"
    line_plot_svg(path, x, series, band, title="top-oil <a & b>")
    texts = [t.text for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert {"top-oil <a & b>", "measured <'raw'>", "a&b", "PI <1&99>"} <= set(texts)
