"""Named random sub-streams: values are pinned so a refactor cannot move them."""
from dotmol.streams import stream_token, substream


def test_stream_token_values_are_pinned():
    assert stream_token("bell", "psi_plus", 0) == 15670677886114524617
    assert stream_token() == 16406829232824261652


def test_substream_values_are_pinned():
    assert substream(7, "bell", "psi_plus", 0).random() == 0.2299360810818375
    # the root seed is masked to 63 bits
    assert substream(2 ** 70, "x").random() == 0.571433285391555
