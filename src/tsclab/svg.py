"""The one SVG writer: each figure is a ``document`` of ``element`` strings."""


def fmt(x: float) -> str:
    return f"{x:.4f}"


def element(tag: str, text: str = "", *children: str, **attrs) -> str:
    """``text`` is escaped, ``children`` are markup; ``font_size=1.0`` writes font-size="1.0000"."""
    head = tag + "".join([f' {k.replace("_", "-")}="{fmt(v) if isinstance(v, float) else v}"'
                          for k, v in attrs.items()])
    if text or children:
        # xml.sax.saxutils.escape's replacements; that module imports urllib and ssl (+7 MB RSS)
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return f"<{head}>{text}{''.join(children)}</{tag}>"
    return f"<{head}/>"


def document(width: float, height: float, elements: list[str]) -> str:
    w, h = fmt(width), fmt(height)
    svg = f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    return "\n".join([svg, *elements, "</svg>"]) + "\n"
